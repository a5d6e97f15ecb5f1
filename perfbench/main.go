// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks that the program's outputs are correct, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output:
//
//	go run . --workload campaign-divergence --seed 1 --seconds 20 --trace 0
//
// run from the repository root (perfbench/run.sh builds and runs it
// there). The line before the result carries the full detail: the
// environment, every named metric with its sample count, the ladder of
// cluster-write, and each correctness violation. A violated gate counts
// as a failed operation and makes the command exit 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// End-to-end metrics: every workload reports each of them. What each
// one measures on each workload is listed in workloadDocs.
const (
	mSetup      = "setup_s"
	mThroughput = "throughput_per_s"
	mP50        = "latency_p50_ms"
	mP90        = "latency_p90_ms"
)

var endToEnd = []struct{ name, unit string }{
	{mSetup, "s"},
	{mThroughput, "1/s"},
	{mP50, "ms"},
	{mP90, "ms"},
}

// perLayer lists the traced run's metrics. A layer that is not on a
// workload's path (the cluster on a campaign, the checker on a cluster)
// reports 0.
var perLayer = []struct{ name, unit string }{
	{"analysis.add_ms_per_test", "ms"},
	{"core.check_ms_per_test", "ms"},
	{"probe.self_ms_per_test", "ms"},
	{"campaign.unattributed_ms_per_test", "ms"},
	{"service.calls_per_test", "count"},
	{"cluster.propose_p50_ms", "ms"},
	{"cluster.propose_p90_ms", "ms"},
	{"cluster.commit_wait_p50_ms", "ms"},
	{"cluster.commit_wait_p90_ms", "ms"},
	{"httpapi.overhead_ms", "ms"},
	{"cluster.write_unattributed_ms", "ms"},
	{"service.apply_ms", "ms"},
	{"service.applies_per_write", "count"},
	{"service.read_ms", "ms"},
	{"wal.fsync_ms", "ms"},
	{"wal.fsyncs_per_write", "count"},
	{"wal.bytes_per_write", "bytes"},
	{"cluster.rpcs_per_write.pull", "count"},
	{"cluster.rpcs_per_write.heartbeat", "count"},
	{"cluster.rpc_bytes_per_write", "bytes"},
	{"cluster.empty_pull_ratio", "ratio"},
	{"cluster.pull_rtt_ms", "ms"},
	{"cluster.heartbeat_rtt_ms", "ms"},
	{"cluster.read_wait_ms.lease", "ms"},
	{"cluster.read_wait_ms.quorum", "ms"},
	{"cluster.elections", "count"},
	{"cluster.step_downs", "count"},
	{"cluster.follower_lag_max", "count"},
	{"gen.lag_p90_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cpu_share", "ratio"},
	{"proc.cpu_util", "ratio"},
	{"traced.throughput_per_s", "1/s"},
	{"traced.latency_p50_ms", "ms"},
}

// workloadDocs says, per workload, why it exists and what each generic
// end-to-end metric means on it.
var workloadDocs = map[string]string{
	"campaign-divergence": "conprobe.Run on googleplus, Test 2 only: the analysis layer dominates. " +
		"throughput = tests/s; latency = per-test time in a lane.",
	"campaign-session": "conprobe.Run on fbgroup, Test 1 only: the engine dominates. " +
		"throughput = tests/s; latency = per-test time in a lane.",
	"cluster-write": "3-node cluster, null state machine, open-loop writes over a ladder. " +
		"throughput = acked writes/s at saturation; latency = write latency at the lowest step.",
	"cluster-mixed": "3-node blogger cluster, 10% writes, reads split over local/lease/quorum at one rate. " +
		"throughput = completed ops/s; latency = read latency over all modes.",
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	par      int    // campaign Parallelism and client connections: nproc
	workDir  string // scratch space inside the checkout
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// MarshalJSON writes a value that could not be measured (NaN: no
// samples) as null.
func (m metric) MarshalJSON() ([]byte, error) {
	type plain struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
		N     int      `json:"n,omitempty"`
	}
	p := plain{Unit: m.Unit, N: m.N}
	if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
		p.Value = &m.Value
	}
	return json.Marshal(p)
}

// outcome is what a workload run produced.
type outcome struct {
	attempted  int
	failed     int
	violations []string
	e2e        map[string]metric // the contract's end-to-end metrics
	named      map[string]metric // the named metrics that apply to the workload
	layers     map[string]metric // per-layer metrics (traced run)
	extra      map[string]any    // ladder table, digests, warnings
	valid      bool              // false when the load generator fell behind
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, named: map[string]metric{}, layers: map[string]metric{}, extra: map[string]any{}, valid: true}
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"campaign-divergence": func(ctx context.Context, c config) (*outcome, error) {
		return runCampaign(ctx, c, divergenceSpec)
	},
	"campaign-session": func(ctx context.Context, c config) (*outcome, error) {
		return runCampaign(ctx, c, sessionSpec)
	},
	"cluster-write": runClusterWrite,
	"cluster-mixed": runClusterMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: campaign-divergence, campaign-session, cluster-write, cluster-mixed")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	workDir := fs.String("work-dir", ".bench_build/work", "scratch directory for cluster data (must not be tmpfs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if _, err := os.Stat(expectationsPath); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	// Load comes from this one process, on at most nproc cores.
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, par: nproc, workDir: *workDir}
	env := environment()
	if strings.HasPrefix(*name, "cluster-") {
		if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		t, err := fsType(cfg.workDir)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		env["wal_fs"] = t
		if t == "tmpfs" {
			fmt.Fprintf(stderr, "perfbench: %s is on tmpfs, where fsync does nothing; use a directory on a disk\n", cfg.workDir)
			return 1
		}
	}

	cpu0, wall0 := cpuTime(), time.Now()
	gc0 := gcCPU()
	out, err := wl(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if cfg.trace {
		gc1 := gcCPU()
		cpu := (cpuTime() - cpu0).Seconds()
		out.layers["proc.cpu_util"] = metric{Value: cpu / (time.Since(wall0).Seconds() * float64(nproc)), Unit: "ratio"}
		if total := gc1.total - gc0.total; total > 0 {
			out.layers["runtime.gc_cpu_share"] = metric{Value: (gc1.gc - gc0.gc) / total, Unit: "ratio"}
		}
	}
	out.failed += len(out.violations)

	detail := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"why": workloadDocs[cfg.workload], "env": env, "valid": out.valid,
		"error_ratio": ratio(out.failed, out.attempted),
		"metrics":     out.named, "violations": out.violations,
	}
	for k, v := range out.extra {
		detail[k] = v
	}
	if cfg.trace {
		detail["layers"] = out.layers
	}
	res := map[string]any{
		"correct": len(out.violations) == 0, "attempted": out.attempted, "failed": out.failed,
	}
	list := endToEnd
	from := out.e2e
	if cfg.trace {
		list, from = perLayer, out.layers
	}
	ms := make(map[string]metric, len(list))
	for _, m := range list {
		v := from[m.name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
		}
		ms[m.name] = metric{Value: v.Value, Unit: m.unit}
	}
	res["metrics"] = ms
	w := bufio.NewWriter(stdout)
	for _, line := range []any{detail, res} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		w.Write(b)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		return 1
	}
	for _, v := range out.violations {
		fmt.Fprintln(stderr, "perfbench: correctness violation:", v)
	}
	if !out.valid {
		fmt.Fprintln(stderr, "perfbench: run invalid: the load generator fell behind its schedule")
	}
	if len(out.violations) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type gcSample struct{ gc, total float64 }

// gcCPU reads the runtime's estimate of CPU seconds spent in GC and in
// total.
func gcCPU() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out gcSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.total = s[1].Value.Float64()
	}
	return out
}

// spanFile is where a traced run writes its spans.
func spanFile(c config) string {
	return filepath.Join(filepath.Dir(c.workDir), "spans", fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
}

func writeSpans(c config, tr *tracer, out *outcome) {
	path := spanFile(c)
	err := os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		err = tr.dump(path)
	}
	if err != nil {
		out.extra["spans_error"] = err.Error()
		return
	}
	out.extra["spans"] = path
}
