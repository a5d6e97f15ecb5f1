package core

import (
	"slices"
	"testing"
	"time"

	"conprobe/internal/trace"
)

var base = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }

// wr builds a completed write.
func wr(id string, agent, seq, invokedMS, returnedMS int) trace.Write {
	return trace.Write{
		ID: trace.WriteID(id), Agent: trace.AgentID(agent), Seq: seq,
		Invoked: at(invokedMS), Returned: at(returnedMS),
	}
}

// rd builds a read observing the given ids.
func rd(agent, invokedMS, returnedMS int, ids ...string) trace.Read {
	obs := make([]trace.WriteID, len(ids))
	for i, s := range ids {
		obs[i] = trace.WriteID(s)
	}
	return trace.Read{
		Agent: trace.AgentID(agent), Invoked: at(invokedMS),
		Returned: at(returnedMS), Observed: obs,
	}
}

func newTrace(agents int, writes []trace.Write, reads []trace.Read) *trace.TestTrace {
	return &trace.TestTrace{
		TestID: 1, Kind: trace.Test1, Service: "test", Started: base,
		Agents: agents, Writes: writes, Reads: reads,
	}
}

func countAnomaly(vs []Violation, a Anomaly) int {
	n := 0
	for _, v := range vs {
		if v.Anomaly == a {
			n++
		}
	}
	return n
}

func TestRYWDetectsMissingOwnWrite(t *testing.T) {
	tr := newTrace(1,
		[]trace.Write{wr("m1", 1, 1, 0, 50)},
		[]trace.Read{rd(1, 100, 140)}, // empty read after write completed
	)
	vs := CheckReadYourWrites(tr)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
	v := vs[0]
	if v.Anomaly != ReadYourWrites || v.Agent != 1 || v.Write != "m1" {
		t.Fatalf("violation = %+v", v)
	}
}

func TestRYWNoViolationWhenVisible(t *testing.T) {
	tr := newTrace(1,
		[]trace.Write{wr("m1", 1, 1, 0, 50), wr("m2", 1, 2, 60, 110)},
		[]trace.Read{rd(1, 200, 240, "m1", "m2")},
	)
	if vs := CheckReadYourWrites(tr); len(vs) != 0 {
		t.Fatalf("unexpected violations: %+v", vs)
	}
}

func TestRYWIgnoresInFlightWrites(t *testing.T) {
	// Read invoked before the write completed: no obligation.
	tr := newTrace(1,
		[]trace.Write{wr("m1", 1, 1, 0, 500)},
		[]trace.Read{rd(1, 100, 140)},
	)
	if vs := CheckReadYourWrites(tr); len(vs) != 0 {
		t.Fatalf("in-flight write must not count: %+v", vs)
	}
}

func TestRYWIgnoresOtherAgentsWrites(t *testing.T) {
	tr := newTrace(2,
		[]trace.Write{wr("m1", 2, 1, 0, 50)},
		[]trace.Read{rd(1, 100, 140)},
	)
	if vs := CheckReadYourWrites(tr); len(vs) != 0 {
		t.Fatalf("other agents' writes must not count: %+v", vs)
	}
}

func TestRYWCountsPerReadPerWrite(t *testing.T) {
	tr := newTrace(1,
		[]trace.Write{wr("m1", 1, 1, 0, 50), wr("m2", 1, 2, 51, 90)},
		[]trace.Read{rd(1, 100, 140), rd(1, 200, 240, "m1")},
	)
	// Read 1 misses m1+m2, read 2 misses m2: 3 observations.
	if got := len(CheckReadYourWrites(tr)); got != 3 {
		t.Fatalf("got %d observations, want 3", got)
	}
}

func TestMWDetectsMissingEarlierWrite(t *testing.T) {
	// Paper's example: agent 1 writes M1 then M2; a read sees only M2.
	tr := newTrace(2,
		[]trace.Write{wr("m1", 1, 1, 0, 50), wr("m2", 1, 2, 60, 110)},
		[]trace.Read{rd(2, 200, 240, "m2")},
	)
	vs := CheckMonotonicWrites(tr)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %+v", len(vs), vs)
	}
	v := vs[0]
	if v.Write != "m1" || v.Write2 != "m2" || v.Agent != 2 {
		t.Fatalf("violation = %+v", v)
	}
}

func TestMWDetectsReorderedPair(t *testing.T) {
	// Both visible but in reverse order (the FB Group same-second case).
	tr := newTrace(1,
		[]trace.Write{wr("m1", 1, 1, 0, 50), wr("m2", 1, 2, 60, 110)},
		[]trace.Read{rd(1, 200, 240, "m2", "m1")},
	)
	vs := CheckMonotonicWrites(tr)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
}

func TestMWNoViolationInOrder(t *testing.T) {
	tr := newTrace(1,
		[]trace.Write{wr("m1", 1, 1, 0, 50), wr("m2", 1, 2, 60, 110)},
		[]trace.Read{rd(1, 200, 240, "m1", "m2")},
	)
	if vs := CheckMonotonicWrites(tr); len(vs) != 0 {
		t.Fatalf("unexpected violations: %+v", vs)
	}
}

func TestMWNoViolationWhenLaterWriteInvisible(t *testing.T) {
	// Only the earlier write visible: fine (y ∈ S is required).
	tr := newTrace(1,
		[]trace.Write{wr("m1", 1, 1, 0, 50), wr("m2", 1, 2, 60, 110)},
		[]trace.Read{rd(1, 200, 240, "m1")},
	)
	if vs := CheckMonotonicWrites(tr); len(vs) != 0 {
		t.Fatalf("unexpected violations: %+v", vs)
	}
}

func TestMWCrossAgentPairsNotChecked(t *testing.T) {
	// Writes by different agents have no mutual MW constraint.
	tr := newTrace(2,
		[]trace.Write{wr("m1", 1, 1, 0, 50), wr("m2", 2, 1, 60, 110)},
		[]trace.Read{rd(1, 200, 240, "m2")},
	)
	if vs := CheckMonotonicWrites(tr); len(vs) != 0 {
		t.Fatalf("cross-agent pair flagged: %+v", vs)
	}
}

func TestMWReaderCanBeAnyClient(t *testing.T) {
	// The reordering is visible to a different client than the writer.
	tr := newTrace(3,
		[]trace.Write{wr("m1", 1, 1, 0, 50), wr("m2", 1, 2, 60, 110)},
		[]trace.Read{rd(3, 200, 240, "m2", "m1")},
	)
	vs := CheckMonotonicWrites(tr)
	if len(vs) != 1 || vs[0].Agent != 3 {
		t.Fatalf("violations = %+v", vs)
	}
}

func TestMRDetectsDisappearingWrite(t *testing.T) {
	tr := newTrace(1, nil,
		[]trace.Read{
			rd(1, 0, 40, "m1", "m2"),
			rd(1, 100, 140, "m2"),
		})
	vs := CheckMonotonicReads(tr)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %+v", len(vs), vs)
	}
	if vs[0].Write != "m1" || vs[0].ReadIndex != 1 {
		t.Fatalf("violation = %+v", vs[0])
	}
}

func TestMRHighWaterCountsDisappearanceOncePerRead(t *testing.T) {
	tr := newTrace(1, nil,
		[]trace.Read{
			rd(1, 0, 40, "m1"),
			rd(1, 100, 140, "m1"),
			rd(1, 200, 240), // m1 gone: 1 observation
			rd(1, 300, 340), // still gone: another observation
		})
	if got := len(CheckMonotonicReads(tr)); got != 2 {
		t.Fatalf("got %d observations, want 2", got)
	}
}

// TestMRHighWaterResetBetweenAgents checks that disappeared writes are
// reported in the order the agent first saw them, and that the high
// water, reused from one agent to the next, does not charge agent 2
// with agent 1's writes.
func TestMRHighWaterResetBetweenAgents(t *testing.T) {
	reads := []trace.Read{
		rd(1, 0, 10, "m3", "m1"),
		rd(1, 100, 110, "m2", "m1", "m3"),
		rd(1, 200, 210),
		rd(2, 0, 10, "m4"),
		rd(2, 100, 110),
	}
	v := func(agent, ri int, w trace.WriteID) Violation {
		return Violation{Anomaly: MonotonicReads, Agent: trace.AgentID(agent), ReadIndex: ri, Write: w}
	}
	want := []Violation{v(1, 2, "m3"), v(1, 2, "m1"), v(1, 2, "m2"), v(2, 1, "m4")}
	if got := CheckMonotonicReads(newTrace(2, nil, reads)); !slices.Equal(got, want) {
		t.Fatalf("violations\n%+v\nwant\n%+v", got, want)
	}
	s := NewStream()
	var got []Violation
	for _, r := range reads {
		for _, v := range s.ObserveRead(r) {
			if v.Anomaly == MonotonicReads {
				got = append(got, v)
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("stream violations\n%+v\nwant\n%+v", got, want)
	}
}

func TestMRSeparateAgentsIndependent(t *testing.T) {
	// Agent 2 never saw m1, so its empty read is fine.
	tr := newTrace(2, nil,
		[]trace.Read{
			rd(1, 0, 40, "m1"),
			rd(2, 100, 140),
			rd(1, 200, 240, "m1"),
		})
	if vs := CheckMonotonicReads(tr); len(vs) != 0 {
		t.Fatalf("unexpected violations: %+v", vs)
	}
}

func TestWFRDetectsEffectWithoutCause(t *testing.T) {
	// M3 (triggered by observing M2) visible without M2.
	w3 := wr("m3", 2, 1, 300, 350)
	w3.Trigger = "m2"
	tr := newTrace(3,
		[]trace.Write{wr("m1", 1, 1, 0, 50), wr("m2", 1, 2, 60, 110), w3},
		[]trace.Read{rd(3, 400, 440, "m1", "m3")},
	)
	vs := CheckWritesFollowsReads(tr)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %+v", len(vs), vs)
	}
	if vs[0].Write != "m2" || vs[0].Write2 != "m3" || vs[0].Agent != 3 {
		t.Fatalf("violation = %+v", vs[0])
	}
}

func TestWFRNoViolationWhenCausePresent(t *testing.T) {
	w3 := wr("m3", 2, 1, 300, 350)
	w3.Trigger = "m2"
	tr := newTrace(3,
		[]trace.Write{wr("m2", 1, 2, 60, 110), w3},
		[]trace.Read{rd(3, 400, 440, "m2", "m3")},
	)
	if vs := CheckWritesFollowsReads(tr); len(vs) != 0 {
		t.Fatalf("unexpected violations: %+v", vs)
	}
}

func TestWFRNoTriggersNoChecks(t *testing.T) {
	tr := newTrace(1,
		[]trace.Write{wr("m1", 1, 1, 0, 50)},
		[]trace.Read{rd(1, 100, 140)},
	)
	if vs := CheckWritesFollowsReads(tr); vs != nil {
		t.Fatalf("expected nil, got %+v", vs)
	}
}

func TestWFRUntriggeredWriteNotChecked(t *testing.T) {
	// m3 visible without m2, but m3 declares no trigger: no WFR anomaly.
	tr := newTrace(2,
		[]trace.Write{wr("m2", 1, 1, 0, 50), wr("m3", 2, 1, 300, 350)},
		[]trace.Read{rd(2, 400, 440, "m3")},
	)
	if vs := CheckWritesFollowsReads(tr); len(vs) != 0 {
		t.Fatalf("unexpected violations: %+v", vs)
	}
}

func TestCheckTestAggregatesAllCheckers(t *testing.T) {
	w3 := wr("m3", 2, 1, 300, 350)
	w3.Trigger = "m2"
	tr := newTrace(2,
		[]trace.Write{wr("m1", 1, 1, 0, 50), wr("m2", 1, 2, 60, 110), w3},
		[]trace.Read{
			rd(1, 120, 160, "m2"),             // RYW (m1 missing) + MW (m1 before m2)
			rd(1, 400, 440, "m1", "m2"),       // fine
			rd(2, 400, 440, "m3"),             // WFR (m3 without m2) + MW (m2 missing... no: m2 not by agent2; m1,m2 by agent1: m2∈S? no. m3 alone: no MW pair)
			rd(2, 500, 540, "m1", "m2", "m3"), // fine
		})
	vs := CheckTest(tr)
	grouped := ByAnomaly(vs)
	if len(grouped[ReadYourWrites]) == 0 {
		t.Error("expected RYW violation")
	}
	if len(grouped[MonotonicWrites]) == 0 {
		t.Error("expected MW violation")
	}
	if len(grouped[WritesFollowsReads]) != 1 {
		t.Errorf("expected 1 WFR violation, got %d", len(grouped[WritesFollowsReads]))
	}
}

func TestAnomalyStrings(t *testing.T) {
	names := map[Anomaly]string{
		ReadYourWrites:     "read your writes",
		MonotonicWrites:    "monotonic writes",
		MonotonicReads:     "monotonic reads",
		WritesFollowsReads: "writes follows reads",
		ContentDivergence:  "content divergence",
		OrderDivergence:    "order divergence",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
	if Anomaly(99).String() == "" {
		t.Error("unknown anomaly should stringify")
	}
	if len(AllAnomalies()) != 6 {
		t.Error("AllAnomalies should list 6")
	}
}

func TestViolationString(t *testing.T) {
	tests := []struct {
		v    Violation
		want string
	}{
		{Violation{Anomaly: ReadYourWrites, Agent: 1, ReadIndex: 2, Write: "m1"},
			"read your writes at agent 1 read #2: m1 missing"},
		{Violation{Anomaly: MonotonicWrites, Agent: 3, ReadIndex: 0, Write: "m1", Write2: "m2"},
			"monotonic writes at agent 3 read #0: m2 observed without/after m1"},
		{Violation{Anomaly: ContentDivergence, Agent: 1, Other: 2},
			"content divergence between agents 1 and 2"},
		{Violation{Anomaly: OrderDivergence, Agent: 1, Other: 3, Write: "a", Write2: "b"},
			"order divergence between agents 1 and 3 (a vs b)"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// TestSessionViolationOrderAcrossAgents pins the order of the batch
// session checkers' violations, alone and through CheckSession: readers
// and writers in agent ID order, each agent's reads in invocation order,
// and disappeared writes in the order the agent first saw them. The
// checkers group the trace into per-agent maps, whose iteration order
// varies from run to run, so the checks are replayed many times. The
// stream's monotonic-reads loop must agree with the batch checker.
func TestSessionViolationOrderAcrossAgents(t *testing.T) {
	z := wr("z", 1, 2, 20, 30)
	z.Trigger = "p"
	writes := []trace.Write{z, wr("w4", 4, 1, 0, 10), wr("w3", 3, 1, 0, 10), wr("w2", 2, 1, 0, 10), wr("w1", 1, 1, 0, 10)}
	var reads []trace.Read
	for ag := 4; ag >= 1; ag-- {
		// Every agent first sees p and q, then only z: its own write goes
		// missing, z arrives without its trigger p, writer 1's w1 is
		// missing behind z, and p and q disappear.
		reads = append(reads, rd(ag, 200, 210, "z"), rd(ag, 100, 110, "p", "q"))
	}
	tr := newTrace(4, writes, reads)
	v := func(a Anomaly, agent, ri int, w, w2 trace.WriteID) Violation {
		return Violation{Anomaly: a, Agent: trace.AgentID(agent), ReadIndex: ri, Write: w, Write2: w2}
	}
	checks := []struct {
		check func(*trace.TestTrace) []Violation
		want  []Violation
	}{
		{CheckReadYourWrites, []Violation{
			v(ReadYourWrites, 1, 0, "w1", ""), v(ReadYourWrites, 1, 0, "z", ""), v(ReadYourWrites, 1, 1, "w1", ""),
			v(ReadYourWrites, 2, 0, "w2", ""), v(ReadYourWrites, 2, 1, "w2", ""),
			v(ReadYourWrites, 3, 0, "w3", ""), v(ReadYourWrites, 3, 1, "w3", ""),
			v(ReadYourWrites, 4, 0, "w4", ""), v(ReadYourWrites, 4, 1, "w4", ""),
		}},
		{CheckMonotonicWrites, []Violation{
			v(MonotonicWrites, 1, 1, "w1", "z"), v(MonotonicWrites, 2, 1, "w1", "z"),
			v(MonotonicWrites, 3, 1, "w1", "z"), v(MonotonicWrites, 4, 1, "w1", "z"),
		}},
		{CheckMonotonicReads, []Violation{
			v(MonotonicReads, 1, 1, "p", ""), v(MonotonicReads, 1, 1, "q", ""),
			v(MonotonicReads, 2, 1, "p", ""), v(MonotonicReads, 2, 1, "q", ""),
			v(MonotonicReads, 3, 1, "p", ""), v(MonotonicReads, 3, 1, "q", ""),
			v(MonotonicReads, 4, 1, "p", ""), v(MonotonicReads, 4, 1, "q", ""),
		}},
		{CheckWritesFollowsReads, []Violation{
			v(WritesFollowsReads, 1, 1, "p", "z"), v(WritesFollowsReads, 2, 1, "p", "z"),
			v(WritesFollowsReads, 3, 1, "p", "z"), v(WritesFollowsReads, 4, 1, "p", "z"),
		}},
	}
	for run := 0; run < 50; run++ {
		session := CheckSession(tr)
		for i, c := range checks {
			if got := c.check(tr); !slices.Equal(got, c.want) {
				t.Fatalf("run %d, checker %d: violations\n%+v\nwant\n%+v", run, i, got, c.want)
			}
			if res := session[i]; res.Anomaly != c.want[0].Anomaly || !slices.Equal(res.Violations, c.want) {
				t.Fatalf("run %d: CheckSession[%d]\n%+v\nwant\n%+v", run, i, res, c.want)
			}
		}
		s := NewStream()
		for _, w := range writes {
			s.ObserveWrite(w)
		}
		var mr []Violation
		for ag := 1; ag <= 4; ag++ {
			for _, r := range []trace.Read{rd(ag, 100, 110, "p", "q"), rd(ag, 200, 210, "z")} {
				for _, got := range s.ObserveRead(r) {
					if got.Anomaly == MonotonicReads {
						mr = append(mr, got)
					}
				}
			}
		}
		if want := checks[2].want; !slices.Equal(mr, want) {
			t.Fatalf("run %d: stream monotonic reads\n%+v\nwant\n%+v", run, mr, want)
		}
	}
}
