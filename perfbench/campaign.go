package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"conprobe"
	"conprobe/internal/analysis"
	"conprobe/internal/core"
	"conprobe/internal/probe"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
)

// campaignSpec is one campaign workload: a paper service probed with
// one test protocol. Each repeat runs tests instances of it.
type campaignSpec struct {
	service string
	kind    trace.TestKind
	tests   int
}

// setupTests is the size of the warm-up campaign timed as set-up: every
// lane builds its world and runs two tests. It runs setupRuns times.
const (
	setupTests = 2 * probe.DefaultLanes
	setupRuns  = 11
)

func (c campaignSpec) workload(seed int64, tests int) conprobe.Workload {
	w := conprobe.Workload{Service: c.service, Seed: seed}
	if c.kind == trace.Test1 {
		w.Test1Count = tests
	} else {
		w.Test2Count = tests
	}
	return w
}

// expectationsPath is the repository's table of plausible anomaly
// prevalences per service (the converify gate uses the same file).
const expectationsPath = "docs/expectations.json"

type prevRange struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

func loadExpectations(service string) (map[string]prevRange, error) {
	data, err := os.ReadFile(expectationsPath)
	if err != nil {
		return nil, err
	}
	var all map[string]map[string]prevRange
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", expectationsPath, err)
	}
	r, ok := all[service]
	if !ok {
		return nil, fmt.Errorf("%s has no ranges for %s", expectationsPath, service)
	}
	return r, nil
}

// checkPrevalence returns one violation per anomaly measured by the
// workload's test kind whose prevalence falls outside its range.
func checkPrevalence(rep *analysis.Report, kind trace.TestKind, ranges map[string]prevRange) []string {
	var bad []string
	for _, a := range core.AllAnomalies() {
		divergence := a == core.ContentDivergence || a == core.OrderDivergence
		if divergence != (kind == trace.Test2) {
			continue
		}
		r, ok := ranges[a.String()]
		if !ok {
			r, ok = ranges["*"]
		}
		if !ok {
			continue
		}
		var got float64
		if divergence {
			got = rep.Divergence[a].Prevalence()
		} else {
			got = rep.Session[a].Prevalence()
		}
		if got < r.Min || got > r.Max {
			bad = append(bad, fmt.Sprintf("%s prevalence %.2f%% outside [%g, %g]", a, got, r.Min, r.Max))
		}
	}
	return bad
}

// reportDigest hashes the rendered report: equal digests mean equal
// analysis output.
func reportDigest(rep *analysis.Report) (string, error) {
	var buf bytes.Buffer
	if err := conprobe.WriteReport(&buf, rep); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8]), nil
}

// repeatResult is one timed campaign.
type repeatResult struct {
	wall, cpu time.Duration
	mallocs   uint64
	digest    string
	report    *analysis.Report
}

// cpuWindow is the period of the campaign CPU-cost samples.
const cpuWindow = 100 * time.Millisecond

// cpuWindows samples, every cpuWindow, the process's CPU time and how
// many tests completed: the CPU cost per test over time.
type cpuWindows struct {
	tests atomic.Int64
	stop  chan struct{}
	done  chan []float64
}

func startCPUWindows() *cpuWindows {
	w := &cpuWindows{stop: make(chan struct{}), done: make(chan []float64)}
	go func() {
		var out []float64
		t := time.NewTicker(cpuWindow)
		defer t.Stop()
		lastCPU, lastN := cpuTime(), int64(0)
		for {
			select {
			case <-w.stop:
				w.done <- out
				return
			case <-t.C:
				// A window in which no test completed passes its CPU time
				// on to the next one that does.
				if cpu, n := cpuTime(), w.tests.Load(); n > lastN {
					out = append(out, ms(cpu-lastCPU)/float64(n-lastN))
					lastCPU, lastN = cpu, n
				}
			}
		}
	}()
	return w
}

// finish stops the sampling and returns the CPU ms per test of each
// window.
func (w *cpuWindows) finish() []float64 {
	close(w.stop)
	return <-w.done
}

// runCampaignOnce runs the campaign through conprobe.Run, the entry
// point a researcher uses; done, when set, counts completed tests.
func runCampaignOnce(ctx context.Context, c campaignSpec, seed int64, tests, par int, done *atomic.Int64) (*repeatResult, error) {
	opts := conprobe.Options{
		Workload: c.workload(seed, tests),
		Engine:   conprobe.Engine{Parallelism: par, DiscardTraces: true},
	}
	if done != nil {
		opts.Engine.OnTrace = func(*conprobe.TestTrace) error { done.Add(1); return nil }
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0, c0 := time.Now(), cpuTime()
	res, err := conprobe.Run(ctx, opts)
	wall, cpu := time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	d, err := reportDigest(res.Report)
	if err != nil {
		return nil, err
	}
	return &repeatResult{
		wall: wall, cpu: cpu, mallocs: m1.Mallocs - m0.Mallocs,
		digest: d, report: res.Report,
	}, nil
}

// countingService counts the agent calls that reach the service.
type countingService struct {
	service.Service
	calls *atomic.Int64
}

func (s *countingService) Write(from simnet.Site, p service.Post) error {
	s.calls.Add(1)
	return s.Service.Write(from, p)
}
func (s *countingService) Read(from simnet.Site, reader string) ([]service.Post, error) {
	s.calls.Add(1)
	return s.Service.Read(from, reader)
}
func (s *countingService) Reset() error {
	s.calls.Add(1)
	return s.Service.Reset()
}

// BeginTest keeps the wrapped service's test boundary visible through
// the wrapper.
func (s *countingService) BeginTest(id int) {
	if ts, ok := s.Service.(service.TestScoped); ok {
		ts.BeginTest(id)
	}
}

// tracedCampaign is one campaign run with per-layer timing. It drives
// the same engine and streaming analysis conprobe.Run composes, through
// the engine's public hooks: LaneSink times each Aggregator.Add (and,
// separately, core.CheckTest on the same trace), Workload.Wrap counts
// service calls.
type tracedCampaign struct {
	wall, addTime, checkTime, busy time.Duration
	calls                          int64
	digest                         string
	report                         *analysis.Report
}

// checkSample is how often the traced run repeats core.CheckTest on a
// trace: one test in checkSample, spread over the lanes, which keeps the
// extra work (and the tracing overhead) small.
const checkSample = 4

func sampledCheck(testID int) bool {
	return (testID/probe.DefaultLanes)%checkSample == 0
}

// runCampaignTraced runs one traced campaign; keep says whether its
// spans are stored.
func runCampaignTraced(ctx context.Context, c campaignSpec, seed int64, tests, par int, tr *tracer, keep bool, done *atomic.Int64) (*tracedCampaign, error) {
	lanes := probe.DefaultLanes
	aggs := make([]*analysis.Aggregator, lanes)
	for i := range aggs {
		aggs[i] = analysis.NewAggregator(c.service)
	}
	var calls atomic.Int64
	w := c.workload(seed, tests)
	sim := probe.SimulateOptions{
		Service: w.Service, Test1Count: w.Test1Count, Test2Count: w.Test2Count, Seed: seed,
		DiscardTraces: true,
		Wrap: func(_ probe.Agent, svc service.Service) service.Service {
			return &countingService{Service: svc, calls: &calls}
		},
	}
	var (
		mu      sync.Mutex
		laneEnd = make([]int64, lanes)
		addNS   = make([]int64, lanes)
		checkNS = make([]int64, lanes)
	)
	eng := probe.EngineOptions{
		Lanes:       lanes,
		Parallelism: par,
		LaneSink: func(lane int, t *trace.TestTrace) error {
			var req uint64
			if keep {
				req = tr.newReq()
			}
			t0 := tr.now()
			aggs[lane].Add(t)
			t1 := tr.now()
			if sampledCheck(t.TestID) {
				core.CheckTest(t)
			}
			t2 := tr.now()
			if keep {
				tr.record(req, "analysis.add", "", t0, t1)
				tr.record(req, "core.check", "", t1, t2)
			}
			done.Add(1)
			mu.Lock()
			laneEnd[lane] = t2
			addNS[lane] += t1 - t0
			checkNS[lane] += t2 - t1
			mu.Unlock()
			return nil
		},
	}
	start := tr.now()
	res, err := probe.SimulateConcurrent(ctx, sim, eng)
	if err != nil {
		return nil, err
	}
	rep := analysis.MergeAggregators(res.Service, aggs)
	wall := time.Duration(tr.now() - start)
	d, err := reportDigest(rep)
	if err != nil {
		return nil, err
	}
	// Workers take lanes in order and each runs its lanes back to back,
	// so the par lanes that finish last end each worker's busy period:
	// their end times bound the workers' summed busy time.
	ends := append([]int64(nil), laneEnd...)
	sort.Slice(ends, func(i, j int) bool { return ends[i] > ends[j] })
	var busy int64
	for _, e := range ends[:min(par, lanes)] {
		busy += e - start
	}
	out := &tracedCampaign{wall: wall, busy: time.Duration(busy), calls: calls.Load(), digest: d, report: rep}
	for l := range addNS {
		out.addTime += time.Duration(addNS[l])
		out.checkTime += time.Duration(checkNS[l])
	}
	return out, nil
}

var (
	divergenceSpec = campaignSpec{service: service.NameGooglePlus, kind: trace.Test2, tests: 200}
	sessionSpec    = campaignSpec{service: service.NameFBGroup, kind: trace.Test1, tests: 4000}
)

// minRepeats is how many times a run repeats the seeded campaign at
// least: the digest gate compares repeats.
const minRepeats = 2

// runCampaign times the seeded campaign repeatedly for the run's
// duration and reports medians over the repeats.
func runCampaign(ctx context.Context, c config, spec campaignSpec) (*outcome, error) {
	out := newOutcome()
	ranges, err := loadExpectations(spec.service)
	if err != nil {
		return nil, err
	}
	// Campaigns are CPU-bound, and on a shared host their wall time
	// depends on what else runs there: steal and contention halved the
	// wall-clock rate of otherwise identical runs. The gated figures are
	// therefore CPU time: set-up CPU seconds, tests per CPU-second and
	// the CPU cost per test. The wall-clock rate and the CPU utilization
	// are reported beside them.
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		r, err := runCampaignOnce(ctx, spec, c.seed, setupTests, c.par, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up campaign: %w", err)
		}
		setups = append(setups, r.cpu.Seconds())
	}
	out.e2e[mSetup] = metric{Value: median(setups), Unit: "s", N: len(setups)}
	if c.trace {
		return out, runCampaignLayers(ctx, c, spec, ranges, out)
	}

	// Each repeat runs the same seeded work; the run reports medians over
	// repeats and windows, so a burst of noise moves few of them.
	var rates, cpuRates, utils, allocs []float64
	var digests []string
	win := startCPUWindows()
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for len(rates) < minRepeats || time.Now().Before(deadline) {
		out.attempted += spec.tests
		r, err := runCampaignOnce(ctx, spec, c.seed, spec.tests, c.par, &win.tests)
		if err != nil {
			out.violate("conprobe.Run: %v", err)
			break
		}
		if len(digests) == 0 {
			out.violations = append(out.violations, checkPrevalence(r.report, spec.kind, ranges)...)
		}
		digests = append(digests, r.digest)
		rates = append(rates, float64(spec.tests)/r.wall.Seconds())
		cpuRates = append(cpuRates, float64(spec.tests)/r.cpu.Seconds())
		utils = append(utils, r.cpu.Seconds()/(r.wall.Seconds()*float64(c.par)))
		allocs = append(allocs, float64(r.mallocs)/float64(spec.tests))
	}
	perTest := win.finish()
	checkDigests(out, digests)
	out.e2e[mThroughput] = metric{Value: median(cpuRates), Unit: "1/s", N: len(cpuRates)}
	out.e2e[mP50] = metric{Value: median(perTest), Unit: "ms", N: len(perTest)}
	out.e2e[mP90] = metric{Value: quantile(perTest, 0.9), Unit: "ms", N: len(perTest)}
	out.named["tests_per_s"] = metric{Value: median(rates), Unit: "1/s", N: len(rates)}
	out.named["tests_per_cpu_s"] = out.e2e[mThroughput]
	out.named["cpu_ms_per_test_p50"] = out.e2e[mP50]
	out.named["cpu_ms_per_test_p90"] = out.e2e[mP90]
	out.named["cpu_util"] = metric{Value: median(utils), Unit: "ratio", N: len(utils)}
	out.named["allocs_per_test"] = metric{Value: median(allocs), Unit: "count", N: len(allocs)}
	out.named["setup_s"] = out.e2e[mSetup]
	out.extra["repeat_digest"] = first(digests)
	return out, nil
}

// checkDigests records a violation unless every repeat of the seed
// produced the same report.
func checkDigests(out *outcome, digests []string) {
	for i, d := range digests {
		if d != digests[0] {
			out.violate("report digest of repeat %d is %s, repeat 0 gave %s", i, d, digests[0])
			return
		}
	}
}

func first(xs []string) string {
	if len(xs) == 0 {
		return ""
	}
	return xs[0]
}

// runCampaignLayers is the traced campaign run. Times are worker time
// per test: the workers' summed busy time is split into Aggregator.Add,
// the extra core.CheckTest the trace runs, and the engine's own time;
// what is left of Parallelism × wall time is unattributed (idle workers
// at the end of a campaign, the final merge).
func runCampaignLayers(ctx context.Context, c config, spec campaignSpec, ranges map[string]prevRange, out *outcome) error {
	tr := newTracer()
	var (
		wall, add, check, busy time.Duration
		calls                  int64
		cpuRates               []float64
		digests                []string
		m0, m1                 runtime.MemStats
	)
	runtime.ReadMemStats(&m0)
	win := startCPUWindows()
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for len(cpuRates) < minRepeats || time.Now().Before(deadline) {
		out.attempted += spec.tests
		// Spans are kept for the first repeat only; the sums cover all.
		c0 := cpuTime()
		r, err := runCampaignTraced(ctx, spec, c.seed, spec.tests, c.par, tr, len(cpuRates) == 0, &win.tests)
		if err != nil {
			out.violate("traced campaign: %v", err)
			break
		}
		if len(digests) == 0 {
			out.violations = append(out.violations, checkPrevalence(r.report, spec.kind, ranges)...)
		}
		digests = append(digests, r.digest)
		wall += r.wall
		add += r.addTime
		check += r.checkTime
		busy += r.busy
		calls += r.calls
		cpuRates = append(cpuRates, float64(spec.tests)/(cpuTime()-c0).Seconds())
	}
	cpuPerTest := win.finish()
	runtime.ReadMemStats(&m1)
	checkDigests(out, digests)
	n := float64(out.attempted)
	perTest := func(d time.Duration) metric { return metric{Value: ms(d) / n, Unit: "ms"} }
	worker := time.Duration(c.par) * wall
	out.layers["analysis.add_ms_per_test"] = perTest(add)
	// core.CheckTest ran on one test in checkSample: scale it to a
	// per-test cost, and keep its time out of the engine's.
	out.layers["core.check_ms_per_test"] = perTest(check * checkSample)
	out.layers["probe.self_ms_per_test"] = perTest(busy - add - check)
	out.layers["campaign.unattributed_ms_per_test"] = perTest(worker - busy)
	out.extra["trace_check_ms_per_test"] = perTest(check)
	out.layers["service.calls_per_test"] = metric{Value: float64(calls) / n, Unit: "count"}
	out.layers["runtime.allocs_per_op"] = metric{Value: float64(m1.Mallocs-m0.Mallocs) / n, Unit: "count"}
	out.layers["runtime.alloc_bytes_per_op"] = metric{Value: float64(m1.TotalAlloc-m0.TotalAlloc) / n, Unit: "bytes"}
	out.layers["traced.throughput_per_s"] = metric{Value: median(cpuRates), Unit: "1/s", N: len(cpuRates)}
	out.layers["traced.latency_p50_ms"] = metric{Value: median(cpuPerTest), Unit: "ms", N: len(cpuPerTest)}
	// The identity the traced run is read by: add, self, the sampled
	// check (trace_check_ms_per_test) and unattributed add up to the
	// workers' time per test, Parallelism × wall time per test.
	out.extra["worker_ms_per_test"] = perTest(worker)
	out.extra["parallelism"] = c.par
	writeSpans(c, tr, out)
	return nil
}
