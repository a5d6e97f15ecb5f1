package probe

import (
	"bytes"
	"encoding/json"
	"testing"

	"conprobe/internal/service"
	"conprobe/internal/trace"
)

// traceOps encodes a trace's operations.
func traceOps(t *testing.T, tr *trace.TestTrace) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Writes []trace.Write
		Reads  []trace.Read
	}{tr.Writes, tr.Reads})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecorderReuseLeavesEarlierTracesIntact runs two Test 1 and two
// Test 2 tests in one lane, so every test after the first reuses the
// runner's per-agent recorders, and checks each trace's Writes and
// Reads still encode as they did when its test finished. fbfeed's
// interest selection copies views where fbgroup shares them.
func TestRecorderReuseLeavesEarlierTracesIntact(t *testing.T) {
	for _, svc := range []string{service.NameFBGroup, service.NameFBFeed} {
		t.Run(svc, func(t *testing.T) {
			var snaps [][]byte
			res, err := Simulate(SimulateOptions{
				Service: svc, Test1Count: 2, Test2Count: 2, Seed: 3,
				TraceSink: func(tr *trace.TestTrace) error {
					snaps = append(snaps, traceOps(t, tr))
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Traces) != 4 || len(snaps) != 4 {
				t.Fatalf("%d traces, %d snapshots, want 4", len(res.Traces), len(snaps))
			}
			shared := 0
			for i, tr := range res.Traces {
				if !bytes.Equal(traceOps(t, tr), snaps[i]) {
					t.Errorf("trace %d (%v) changed after later tests ran", i, tr.Kind)
				}
				prev := map[trace.AgentID][]trace.WriteID{}
				for _, r := range tr.Reads {
					if p := prev[r.Agent]; len(p) > 0 && len(r.Observed) > 0 && &p[0] == &r.Observed[0] {
						shared++
					}
					prev[r.Agent] = r.Observed
				}
			}
			if svc == service.NameFBGroup && shared == 0 {
				t.Error("no read shared its predecessor's Observed slice: the view memo never hit")
			}
		})
	}
}
