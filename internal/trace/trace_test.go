package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

func sampleTrace() *TestTrace {
	return &TestTrace{
		TestID:  7,
		Kind:    Test1,
		Service: "googleplus",
		Started: t0,
		Agents:  3,
		Writes: []Write{
			{ID: "m1", Agent: 1, Seq: 1, Invoked: at(0), Returned: at(50)},
			{ID: "m2", Agent: 1, Seq: 2, Invoked: at(60), Returned: at(110)},
			{ID: "m3", Agent: 2, Seq: 1, Invoked: at(300), Returned: at(350), Trigger: "m2"},
		},
		Reads: []Read{
			{Agent: 1, Invoked: at(120), Returned: at(160), Observed: []WriteID{"m1", "m2"}},
			{Agent: 2, Invoked: at(400), Returned: at(440), Observed: []WriteID{"m1", "m2", "m3"}},
			{Agent: 1, Invoked: at(20), Returned: at(60), Observed: []WriteID{"m1"}},
		},
		Deltas: map[AgentID]time.Duration{
			1: 5 * time.Millisecond,
			2: -12 * time.Millisecond,
		},
		Uncertainty: map[AgentID]time.Duration{1: 68 * time.Millisecond},
	}
}

func TestReadContainsAndPosition(t *testing.T) {
	r := Read{Observed: []WriteID{"a", "b", "c"}}
	if !r.Contains("b") || r.Contains("z") {
		t.Fatal("Contains wrong")
	}
	if r.Position("c") != 2 || r.Position("z") != -1 {
		t.Fatal("Position wrong")
	}
}

func TestCorrectedAppliesDelta(t *testing.T) {
	tr := sampleTrace()
	got := tr.Corrected(1, at(100))
	if want := at(105); !got.Equal(want) {
		t.Fatalf("Corrected agent1 = %v, want %v", got, want)
	}
	got = tr.Corrected(2, at(100))
	if want := at(88); !got.Equal(want) {
		t.Fatalf("Corrected agent2 = %v, want %v", got, want)
	}
	// Unknown agent: identity.
	got = tr.Corrected(3, at(100))
	if !got.Equal(at(100)) {
		t.Fatalf("Corrected unknown agent = %v, want identity", got)
	}
}

func TestWritesByAgentSortsBySeq(t *testing.T) {
	tr := sampleTrace()
	// Shuffle input order.
	tr.Writes[0], tr.Writes[1] = tr.Writes[1], tr.Writes[0]
	byAgent := tr.WritesByAgent()
	ws := byAgent[1]
	if len(ws) != 2 || ws[0].ID != "m1" || ws[1].ID != "m2" {
		t.Fatalf("agent1 writes = %+v, want m1,m2", ws)
	}
	if len(byAgent[2]) != 1 || byAgent[2][0].ID != "m3" {
		t.Fatalf("agent2 writes wrong: %+v", byAgent[2])
	}
}

func TestReadsByAgentSortsByInvocation(t *testing.T) {
	tr := sampleTrace()
	rs := tr.ReadsByAgent()[1]
	if len(rs) != 2 {
		t.Fatalf("agent1 reads = %d, want 2", len(rs))
	}
	if !rs[0].Invoked.Equal(at(20)) || !rs[1].Invoked.Equal(at(120)) {
		t.Fatalf("reads not sorted by invocation: %v, %v", rs[0].Invoked, rs[1].Invoked)
	}
}

func TestWriteByID(t *testing.T) {
	tr := sampleTrace()
	w, ok := tr.WriteByID("m3")
	if !ok || w.Trigger != "m2" {
		t.Fatalf("WriteByID(m3) = %+v, %v", w, ok)
	}
	if _, ok := tr.WriteByID("nope"); ok {
		t.Fatal("found nonexistent write")
	}
}

func TestAgentIDs(t *testing.T) {
	tr := sampleTrace()
	ids := tr.AgentIDs()
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("AgentIDs = %v", ids)
	}
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*TestTrace)
	}{
		{"zero agents", func(tr *TestTrace) { tr.Agents = 0 }},
		{"empty write id", func(tr *TestTrace) { tr.Writes[0].ID = "" }},
		{"duplicate write id", func(tr *TestTrace) { tr.Writes[1].ID = tr.Writes[0].ID }},
		{"unknown write agent", func(tr *TestTrace) { tr.Writes[0].Agent = 9 }},
		{"write time inverted", func(tr *TestTrace) { tr.Writes[0].Returned = tr.Writes[0].Invoked.Add(-time.Second) }},
		{"unknown read agent", func(tr *TestTrace) { tr.Reads[0].Agent = 0 }},
		{"read time inverted", func(tr *TestTrace) { tr.Reads[0].Returned = tr.Reads[0].Invoked.Add(-time.Second) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := sampleTrace()
			tt.mutate(tr)
			if err := tr.Validate(); err == nil {
				t.Fatalf("Validate accepted %s", tt.name)
			}
		})
	}
}

func TestTestKindString(t *testing.T) {
	if Test1.String() != "test1" || Test2.String() != "test2" {
		t.Fatal("TestKind.String wrong")
	}
	if TestKind(9).String() == "" {
		t.Fatal("unknown kind should still stringify")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := []*TestTrace{sampleTrace(), sampleTrace()}
	in[1].TestID = 8
	in[1].Kind = Test2
	for _, tr := range in {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	out, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("read %d traces, want 2", len(out))
	}
	if out[0].TestID != 7 || out[1].TestID != 8 {
		t.Fatalf("ids = %d,%d", out[0].TestID, out[1].TestID)
	}
	if out[1].Kind != Test2 {
		t.Fatalf("kind = %v", out[1].Kind)
	}
	if out[0].Deltas[1] != 5*time.Millisecond {
		t.Fatalf("delta lost in round trip: %v", out[0].Deltas[1])
	}
	if len(out[0].Reads[0].Observed) != 2 {
		t.Fatalf("observed lost: %+v", out[0].Reads[0])
	}
	if !out[0].Writes[2].Invoked.Equal(at(300)) {
		t.Fatalf("timestamps corrupted: %v", out[0].Writes[2].Invoked)
	}
}

func TestJSONLReadEOF(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestJSONLReadCorrupt(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("{not json}\n")))
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatalf("err = %v, want decode error", err)
	}
}

func TestReadContainsQuickProperty(t *testing.T) {
	f := func(ids []string, probe string) bool {
		obs := make([]WriteID, len(ids))
		inSet := false
		for i, s := range ids {
			obs[i] = WriteID(s)
			if s == probe {
				inSet = true
			}
		}
		r := Read{Observed: obs}
		return r.Contains(WriteID(probe)) == inSet &&
			(r.Position(WriteID(probe)) >= 0) == inSet
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGroupByServiceAndNames(t *testing.T) {
	a := sampleTrace()
	b := sampleTrace()
	b.Service = "alpha"
	c := sampleTrace()
	c.TestID = 9
	groups := GroupByService([]*TestTrace{a, b, c})
	if len(groups) != 2 || len(groups["googleplus"]) != 2 || len(groups["alpha"]) != 1 {
		t.Fatalf("groups = %v", groups)
	}
	if groups["googleplus"][1].TestID != 9 {
		t.Fatal("order not preserved")
	}
	names := ServiceNames([]*TestTrace{a, b, c})
	if len(names) != 2 || names[0] != "alpha" || names[1] != "googleplus" {
		t.Fatalf("names = %v", names)
	}
}

// TestByAgentSlicesAreIsolated checks that the per-agent slices, which
// share one backing array, do not overlap: appending to one agent's
// slice must leave every other agent's slice unchanged.
func TestByAgentSlicesAreIsolated(t *testing.T) {
	tr := sampleTrace()
	for ag := AgentID(1); ag <= 3; ag++ {
		for i := 0; i < 3; i++ {
			tr.Reads = append(tr.Reads, Read{Agent: ag, Invoked: at(10 * i), Returned: at(10*i + 5)})
			tr.Writes = append(tr.Writes, Write{ID: WriteID(fmt.Sprintf("w%d-%d", ag, i)), Agent: ag, Seq: i + 1})
		}
	}
	wantReads, wantWrites := tr.ReadsByAgent(), tr.WritesByAgent()
	for ag := range wantReads {
		reads, writes := tr.ReadsByAgent(), tr.WritesByAgent()
		reads[ag] = append(reads[ag], Read{Agent: 99})
		writes[ag] = append(writes[ag], Write{ID: "intruder", Agent: 99})
		for other := range wantReads {
			if other == ag {
				continue
			}
			if !reflect.DeepEqual(reads[other], wantReads[other]) {
				t.Fatalf("append to agent %d's reads changed agent %d's: %+v", ag, other, reads[other])
			}
			if !reflect.DeepEqual(writes[other], wantWrites[other]) {
				t.Fatalf("append to agent %d's writes changed agent %d's: %+v", ag, other, writes[other])
			}
		}
	}
}

// TestByAgentMatchesStableSort checks the grouping against a plain
// reference: bucket in trace order, then stable-sort each bucket. The
// traces are out of order and full of ties, and some have more agents
// than the grouping keeps on its stack.
func TestByAgentMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		agents := 1 + rng.Intn(12)
		tr := &TestTrace{Agents: agents}
		for i := rng.Intn(40); i > 0; i-- {
			ag := AgentID(1 + rng.Intn(agents))
			tr.Reads = append(tr.Reads, Read{
				Agent: ag, Invoked: at(rng.Intn(5)),
				Observed: []WriteID{WriteID(fmt.Sprint(i))}, // tells tied reads apart
			})
			tr.Writes = append(tr.Writes, Write{
				ID: WriteID(fmt.Sprint(i)), Agent: ag, Seq: rng.Intn(3), Invoked: at(rng.Intn(3)),
			})
		}
		wantReads := map[AgentID][]Read{}
		for _, r := range tr.Reads {
			wantReads[r.Agent] = append(wantReads[r.Agent], r)
		}
		for _, rs := range wantReads {
			sort.SliceStable(rs, func(i, j int) bool { return rs[i].Invoked.Before(rs[j].Invoked) })
		}
		wantWrites := map[AgentID][]Write{}
		for _, w := range tr.Writes {
			wantWrites[w.Agent] = append(wantWrites[w.Agent], w)
		}
		for _, ws := range wantWrites {
			sort.SliceStable(ws, func(i, j int) bool {
				if ws[i].Seq != ws[j].Seq {
					return ws[i].Seq < ws[j].Seq
				}
				return ws[i].Invoked.Before(ws[j].Invoked)
			})
		}
		if got := tr.ReadsByAgent(); !reflect.DeepEqual(got, wantReads) {
			t.Fatalf("iter %d: ReadsByAgent = %+v\nwant %+v", iter, got, wantReads)
		}
		if got := tr.WritesByAgent(); !reflect.DeepEqual(got, wantWrites) {
			t.Fatalf("iter %d: WritesByAgent = %+v\nwant %+v", iter, got, wantWrites)
		}
	}
}
