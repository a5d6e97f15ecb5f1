package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/trace"
)

// The benchmark runs from the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runBench runs the command in process and decodes its last line.
func runBench(t *testing.T, args ...string) (int, resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "--work-dir", t.TempDir()), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if code == 0 || len(lines) >= 2 {
		raw := map[string]json.RawMessage{}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s\nstderr: %s", err, stdout.String(), stderr.String())
		}
		if len(raw) != 4 {
			t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", raw)
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
	}
	return code, res, stderr.String()
}

// A tiny run of every workload prints every named metric with its unit,
// untraced and traced.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters and runs campaigns")
	}
	for _, wl := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			t.Run(wl+"/trace="+traced, func(t *testing.T) {
				code, res, stderr := runBench(t, "--workload", wl, "--seed", "3", "--seconds", "2", "--trace", traced)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v, stderr: %s", code, res, stderr)
				}
				want := endToEnd
				if traced == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s = %+v (present %v), want unit %s", m.name, got, ok, m.unit)
					}
					if traced == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

func TestViolationExitsNonZero(t *testing.T) {
	workloads["injected-violation"] = func(context.Context, config) (*outcome, error) {
		out := newOutcome()
		out.attempted = 10
		out.violate("injected")
		return out, nil
	}
	defer delete(workloads, "injected-violation")
	code, res, _ := runBench(t, "--workload", "injected-violation", "--seconds", "1")
	if code == 0 || res.Correct || res.Failed != 1 || res.Attempted != 10 {
		t.Fatalf("exit %d, result %+v; want a non-zero exit, correct=false, failed=1", code, res)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if code, _, _ := runBench(t, "--workload", "nope"); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
}

// A replica that dropped an acked write trips the durability gate.
func TestReplicaGateTripsOnDroppedWrite(t *testing.T) {
	cl, err := bootCluster(t.TempDir(), "null", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	var acked []string
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("w-%d", i)
		if err := cl.leader().node.Write(simnet.Oregon, service.Post{ID: id, Author: "a"}); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, id)
	}
	out := newOutcome()
	checkReplicas(out, cl, acked)
	if len(out.violations) != 0 {
		t.Fatalf("healthy cluster: %v", out.violations)
	}
	sm := cl.nodes[2].sm.(*nullSM)
	sm.mu.Lock()
	delete(sm.ids, "w-1")
	sm.mu.Unlock()
	checkReplicas(out, cl, acked)
	if len(out.violations) != 1 || !strings.Contains(out.violations[0], "n3 lost 1 of 3") {
		t.Fatalf("violations %v, want n3 to have lost one write", out.violations)
	}
}

// A lease or quorum read missing a write acked before it was sent trips
// the read-floor gate; a local read may be stale.
func TestReadFloorGateTripsOnStaleRead(t *testing.T) {
	acked := []string{"a", "b"}
	read := func(kind string, floor int, posts ...string) *opResult {
		r := &opResult{plannedOp: plannedOp{kind: kind, id: "r"}, floor: floor, posts: map[string]bool{}}
		for _, p := range posts {
			r.posts[p] = true
		}
		return r
	}
	out := newOutcome()
	checkReadFloors(out, []*opResult{
		read(opReadLease, 1, "a"), read(opReadQuorum, 2, "a", "b"), read(opReadLocal, 2),
	}, acked)
	if len(out.violations) != 0 {
		t.Fatalf("fresh reads: %v", out.violations)
	}
	for _, kind := range []string{opReadLease, opReadQuorum} {
		out := newOutcome()
		checkReadFloors(out, []*opResult{read(kind, 2, "a")}, acked)
		if len(out.violations) != 1 || !strings.Contains(out.violations[0], "misses write b") {
			t.Errorf("%s: violations %v, want one for write b", kind, out.violations)
		}
	}
}

// A report outside its expected ranges trips the prevalence gate, and
// differing repeats trip the digest gate.
func TestCampaignGatesTrip(t *testing.T) {
	r, err := runCampaignOnce(context.Background(), divergenceSpec, 5, setupTests, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	wide := map[string]prevRange{"*": {Min: 0, Max: 100}}
	if bad := checkPrevalence(r.report, trace.Test2, wide); len(bad) != 0 {
		t.Fatalf("wide ranges: %v", bad)
	}
	narrow := map[string]prevRange{"content divergence": {Min: 0, Max: 0}, "order divergence": {Min: 101, Max: 102}}
	if bad := checkPrevalence(r.report, trace.Test2, narrow); len(bad) != 2 {
		t.Fatalf("narrow ranges: %v, want two violations", bad)
	}
	// Session anomalies are not what Test 2 measures.
	if bad := checkPrevalence(r.report, trace.Test2, map[string]prevRange{"monotonic reads": {Min: 50, Max: 50}}); len(bad) != 0 {
		t.Fatalf("session range checked on a Test 2 campaign: %v", bad)
	}
	again, err := runCampaignOnce(context.Background(), divergenceSpec, 5, setupTests, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := newOutcome()
	checkDigests(out, []string{r.digest, again.digest})
	if len(out.violations) != 0 {
		t.Fatalf("same seed at another parallelism: %v", out.violations)
	}
	checkDigests(out, []string{r.digest, again.digest, "0000"})
	if len(out.violations) != 1 {
		t.Fatalf("violations %v, want one digest mismatch", out.violations)
	}
}

func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	parent := span{Start: 0, End: 10 * ms}
	children := []span{{Start: 1 * ms, End: 4 * ms}, {Start: 3 * ms, End: 5 * ms}, {Start: 9 * ms, End: 12 * ms}}
	if got := selfTime(parent, children); got != 5*time.Millisecond {
		t.Fatalf("self time %v, want 5ms (children cover 1-5ms and 9-10ms)", got)
	}
}

func TestLinkParents(t *testing.T) {
	spans := []span{
		{Req: 1, ID: 1, Name: "client", Start: 0, End: 100},
		{Req: 1, ID: 2, Name: "handler", Start: 10, End: 90},
		{Req: 1, ID: 3, Name: "propose", Start: 20, End: 30},
		{Req: 2, ID: 4, Name: "other request", Start: 0, End: 1000},
		{Req: 0, ID: 5, Name: "fsync", Start: 21, End: 22},
	}
	linkParents(spans)
	want := []uint64{0, 1, 2, 0, 0}
	for i, s := range spans {
		if s.Parent != want[i] {
			t.Errorf("%s: parent %d, want %d", s.Name, s.Parent, want[i])
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v, want 3", q)
	}
	if q := quantile(xs, 0.9); q != 4.6 {
		t.Errorf("p90 %v, want 4.6", q)
	}
}
