package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"conprobe/internal/probe"
	"conprobe/internal/service"
	"conprobe/internal/trace"
)

// The reference divergence checkers evaluate the definitions of Section
// III literally: hash sets for every predicate, every read of one agent
// against every read of the other, and one stable sort of each pair's
// events for the windows. The production checkers decide each distinct
// state once, scan short sequences without allocating and merge
// per-agent timelines; the tests below hold them to the reference,
// violation for violation and window for window.

func refContentDiverged(s1, s2 []trace.WriteID) bool {
	set1 := make(map[trace.WriteID]bool, len(s1))
	for _, x := range s1 {
		set1[x] = true
	}
	set2 := make(map[trace.WriteID]bool, len(s2))
	for _, y := range s2 {
		set2[y] = true
	}
	onlyIn1 := false
	for _, x := range s1 {
		if !set2[x] {
			onlyIn1 = true
			break
		}
	}
	if !onlyIn1 {
		return false
	}
	for _, y := range s2 {
		if !set1[y] {
			return true
		}
	}
	return false
}

func refOrderDiverged(s1, s2 []trace.WriteID) (trace.WriteID, trace.WriteID, bool) {
	pos2 := make(map[trace.WriteID]int, len(s2))
	for i, id := range s2 {
		pos2[id] = i
	}
	type elem struct {
		id trace.WriteID
		p2 int
	}
	var common []elem
	for _, id := range s1 {
		if p, ok := pos2[id]; ok {
			common = append(common, elem{id: id, p2: p})
		}
	}
	for i := 0; i < len(common); i++ {
		for j := i + 1; j < len(common); j++ {
			if common[j].p2 < common[i].p2 {
				return common[i].id, common[j].id, true
			}
		}
	}
	return "", "", false
}

// refCheckDivergence yields a violation for every diverging pair of
// reads, in order of the first agent's read, then the second's.
func refCheckDivergence(tr *trace.TestTrace, kind Anomaly) []Violation {
	reads := tr.ReadsByAgent()
	var out []Violation
	for _, p := range Pairs(tr) {
		ra, rb := reads[p.A], reads[p.B]
		for i := range ra {
			for j := range rb {
				switch kind {
				case ContentDivergence:
					if refContentDiverged(ra[i].Observed, rb[j].Observed) {
						out = append(out, Violation{Anomaly: kind, Agent: p.A, Other: p.B, ReadIndex: i})
					}
				case OrderDivergence:
					if x, y, ok := refOrderDiverged(ra[i].Observed, rb[j].Observed); ok {
						out = append(out, Violation{Anomaly: kind, Agent: p.A, Other: p.B, ReadIndex: i, Write: x, Write2: y})
					}
				}
			}
		}
	}
	return out
}

func refOrderPredicate(s1, s2 []trace.WriteID) bool {
	_, _, ok := refOrderDiverged(s1, s2)
	return ok
}

func refDivergenceWindows(tr *trace.TestTrace, diverged func(s1, s2 []trace.WriteID) bool) []WindowResult {
	type event struct {
		at    time.Time
		agent trace.AgentID
		read  *trace.Read
	}
	reads := tr.ReadsByAgent()
	var out []WindowResult
	for _, p := range Pairs(tr) {
		var events []event
		for _, ag := range []trace.AgentID{p.A, p.B} {
			rs := reads[ag]
			for i := range rs {
				events = append(events, event{at: tr.Corrected(ag, rs[i].Returned), agent: ag, read: &rs[i]})
			}
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].at.Before(events[j].at) })

		res := WindowResult{Pair: p, Converged: true}
		var (
			lastA, lastB           []trace.WriteID
			haveA, haveB, inWindow bool
			windowStart, lastAt    time.Time
		)
		closeWindow := func(end time.Time) {
			d := max(end.Sub(windowStart), 0)
			res.Total += d
			res.Count++
			res.Largest = max(res.Largest, d)
		}
		for _, ev := range events {
			if ev.agent == p.A {
				lastA, haveA = ev.read.Observed, true
			} else {
				lastB, haveB = ev.read.Observed, true
			}
			lastAt = ev.at
			cond := haveA && haveB && diverged(lastA, lastB)
			switch {
			case cond && !inWindow:
				inWindow, windowStart = true, ev.at
			case !cond && inWindow:
				inWindow = false
				closeWindow(ev.at)
			}
		}
		if inWindow {
			res.Converged = false
			closeWindow(lastAt)
		}
		out = append(out, res)
	}
	return out
}

// assertMatchesReference checks every divergence entry point on tr
// against the reference. CheckTest must be exactly the session
// checkers' output, which this file does not replace, followed by the
// reference divergence violations.
func assertMatchesReference(t *testing.T, tr *trace.TestTrace) {
	t.Helper()
	cd := refCheckDivergence(tr, ContentDivergence)
	if got := CheckContentDivergence(tr); !slices.Equal(got, cd) {
		t.Fatalf("CheckContentDivergence = %+v\nreference %+v", got, cd)
	}
	od := refCheckDivergence(tr, OrderDivergence)
	if got := CheckOrderDivergence(tr); !slices.Equal(got, od) {
		t.Fatalf("CheckOrderDivergence = %+v\nreference %+v", got, od)
	}
	if got, want := ContentDivergenceWindows(tr), refDivergenceWindows(tr, refContentDiverged); !slices.Equal(got, want) {
		t.Fatalf("ContentDivergenceWindows = %+v\nreference %+v", got, want)
	}
	if got, want := OrderDivergenceWindows(tr), refDivergenceWindows(tr, refOrderPredicate); !slices.Equal(got, want) {
		t.Fatalf("OrderDivergenceWindows = %+v\nreference %+v", got, want)
	}
	want := slices.Concat(CheckReadYourWrites(tr), CheckMonotonicWrites(tr),
		CheckMonotonicReads(tr), CheckWritesFollowsReads(tr), cd, od)
	if got := CheckTest(tr); !slices.Equal(got, want) {
		t.Fatalf("CheckTest = %+v\nwant %+v", got, want)
	}
}

func TestPredicatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seq := func() []trace.WriteID {
		// A small alphabet makes duplicates and shared IDs common; lengths
		// up to 16 take both the scan and the hash-set path.
		out := make([]trace.WriteID, rng.Intn(17))
		for i := range out {
			out[i] = trace.WriteID(rune('a' + rng.Intn(10)))
		}
		return out
	}
	cases := [][2][]trace.WriteID{
		{ids("a", "b", "a"), ids("a", "b")},
		{ids("b", "a"), ids("a", "b", "a")},
		{ids("a", "b", "c", "b"), ids("c", "b", "a", "c")},
		{ids("x", "x"), ids("y", "y")},
		{nil, ids("a")},
	}
	for i := 0; i < 5000; i++ {
		cases = append(cases, [2][]trace.WriteID{seq(), seq()})
	}
	for _, c := range cases {
		s1, s2 := c[0], c[1]
		if got, want := contentDiverged(s1, s2), refContentDiverged(s1, s2); got != want {
			t.Fatalf("contentDiverged(%v, %v) = %v, reference %v", s1, s2, got, want)
		}
		x, y, ok := orderDiverged(s1, s2)
		wx, wy, wok := refOrderDiverged(s1, s2)
		if x != wx || y != wy || ok != wok {
			t.Fatalf("orderDiverged(%v, %v) = %v,%v,%v, reference %v,%v,%v", s1, s2, x, y, ok, wx, wy, wok)
		}
	}
}

func TestCheckersMatchReferenceOnProfiles(t *testing.T) {
	for _, name := range service.ProfileNames() {
		res, err := probe.Simulate(probe.SimulateOptions{Service: name, Test2Count: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, tr := range res.Traces {
			if tr.Kind == trace.Test2 {
				assertMatchesReference(t, tr)
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%s: no Test 2 traces", name)
		}
	}
}

func TestCheckersMatchReferenceOnHandBuiltTraces(t *testing.T) {
	long := func(prefix string, n int, rev bool) []string {
		out := make([]string, n)
		for i := range out {
			k := i
			if rev {
				k = n - 1 - i
			}
			out[i] = fmt.Sprintf("%s%d", prefix, k)
		}
		return out
	}
	traces := map[string]*trace.TestTrace{
		"duplicate IDs": newTrace(3, nil, []trace.Read{
			rd(1, 0, 10, "a", "b", "a"),
			rd(2, 0, 10, "b", "a", "b"),
			rd(3, 0, 10, "a", "a"),
			rd(1, 20, 30, "a", "b", "a"),
			rd(2, 20, 30, "c", "c"),
			rd(3, 20, 30, "b", "c", "a", "c"),
		}),
		// Agent 1's second read returns before its first: reads overlap,
		// so its stream is out of order on the timeline.
		"returned out of order": newTrace(2, nil, []trace.Read{
			rd(1, 0, 300, "m1"),
			rd(1, 10, 100, "m2", "m1"),
			rd(1, 20, 100, "m1", "m2"),
			rd(2, 50, 100, "m2"),
			rd(2, 60, 250, "m1", "m2"),
			rd(2, 70, 80, "m2", "m1"),
		}),
		"long sequences": newTrace(3, nil, []trace.Read{
			rd(1, 0, 10, long("w", 12, false)...),
			rd(2, 0, 10, long("w", 12, true)...),
			rd(3, 0, 10, append(long("w", 10, false), "x", "w3")...),
			rd(1, 20, 30, append(long("w", 12, false), "y")...),
			rd(2, 20, 30, long("w", 14, false)...),
			rd(3, 20, 30, long("w", 9, true)...),
		}),
	}
	// Clock deltas that swap which agent's read comes first.
	traces["returned out of order"].Deltas = map[trace.AgentID]time.Duration{2: 20 * time.Millisecond}
	traces["duplicate IDs"].Deltas = map[trace.AgentID]time.Duration{1: -5 * time.Millisecond, 3: 5 * time.Millisecond}
	for name, tr := range traces {
		t.Run(name, func(t *testing.T) { assertMatchesReference(t, tr) })
	}
}

// FuzzCheckersMatchReference holds the production divergence checkers to
// the reference on arbitrary decoded traces.
func FuzzCheckersMatchReference(f *testing.F) {
	f.Add([]byte(`{"kind":2,"agents":3,"reads":[` +
		`{"agent":1,"returned":"2026-01-01T00:00:02Z","observed":["a","b","a"]},` +
		`{"agent":1,"returned":"2026-01-01T00:00:01Z","observed":["b"]},` +
		`{"agent":2,"returned":"2026-01-01T00:00:01Z","observed":["b","a"]},` +
		`{"agent":3,"returned":"2026-01-01T00:00:03Z","observed":["c","a","b"]}],` +
		`"deltas_ns":{"2":1000000000}}`))
	f.Add([]byte(`{"kind":2,"agents":2,"reads":[` +
		`{"agent":1,"observed":["a","b","c","d","e","f","g","h","i"]},` +
		`{"agent":2,"observed":["i","h","g","f","e","d","c","b","a","z"]},` +
		`{"agent":9,"observed":["a"]}]}`))
	f.Add([]byte(`{"kind":1,"agents":1,"reads":[{"agent":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := trace.NewReader(bytes.NewReader(data))
		for {
			tr, err := r.Read()
			if err == io.EOF || err != nil {
				return
			}
			// The checkers are quadratic in agents; a handful covers
			// every pair shape.
			if tr.Agents > 8 {
				continue
			}
			assertMatchesReference(t, tr)
		}
	})
}
