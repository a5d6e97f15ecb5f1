package core

import (
	"slices"
	"time"

	"conprobe/internal/trace"
)

// Pair identifies an unordered pair of agents, normalized so A < B.
type Pair struct {
	A, B trace.AgentID
}

// MakePair returns the normalized pair for a and b.
func MakePair(a, b trace.AgentID) Pair {
	if b < a {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// Pairs returns every unordered agent pair of the trace.
func Pairs(tr *trace.TestTrace) []Pair {
	var out []Pair
	for a := 1; a <= tr.Agents; a++ {
		for b := a + 1; b <= tr.Agents; b++ {
			out = append(out, Pair{A: trace.AgentID(a), B: trace.AgentID(b)})
		}
	}
	return out
}

// ContentDiverged reports the Content Divergence condition between two
// observed sequences:
//
//	∃ x ∈ S1, y ∈ S2 : x ∉ S2 ∧ y ∉ S1
//
// It is exported for white-box monitors that evaluate the condition on
// replica logs directly.
func ContentDiverged(s1, s2 []trace.WriteID) bool {
	return contentDiverged(s1, s2)
}

// OrderDiverged reports the Order Divergence condition between two
// observed sequences.
func OrderDiverged(s1, s2 []trace.WriteID) bool {
	_, _, ok := orderDiverged(s1, s2)
	return ok
}

// smallScan bounds len(s1)*len(s2) for the allocation-free linear-scan
// forms of the divergence predicates. Service reads return a handful of
// writes, so nearly every comparison takes the scan. Longer sequences
// use hash sets, which cost less there than the scan's quadratic work.
const smallScan = 64

// contentDiverged reports the Content Divergence condition:
//
//	∃ x ∈ S1, y ∈ S2 : x ∉ S2 ∧ y ∉ S1
func contentDiverged(s1, s2 []trace.WriteID) bool {
	if len(s1)*len(s2) <= smallScan {
		return hasMissing(s1, s2) && hasMissing(s2, s1)
	}
	set1 := make(map[trace.WriteID]bool, len(s1))
	for _, x := range s1 {
		set1[x] = true
	}
	onlyIn1 := false
	set2 := make(map[trace.WriteID]bool, len(s2))
	for _, y := range s2 {
		set2[y] = true
	}
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

// hasMissing reports whether some element of a is absent from b.
func hasMissing(a, b []trace.WriteID) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return true
		}
	}
	return false
}

// orderDiverged reports the Order Divergence condition and, when true, a
// witnessing pair of writes:
//
//	∃ x, y ∈ S1 ∩ S2 : S1(x) ≺ S1(y) ∧ S2(y) ≺ S2(x)
//
// The witness is the first inversion in S1 order, taking an ID that
// repeats in S2 at its last position there.
func orderDiverged(s1, s2 []trace.WriteID) (trace.WriteID, trace.WriteID, bool) {
	if len(s1)*len(s2) <= smallScan {
		for i, x := range s1 {
			px := lastIndex(s2, x)
			if px < 0 {
				continue
			}
			for _, y := range s1[i+1:] {
				if py := lastIndex(s2, y); py >= 0 && py < px {
					return x, y, true
				}
			}
		}
		return "", "", false
	}
	pos2 := make(map[trace.WriteID]int, len(s2))
	for i, id := range s2 {
		pos2[id] = i
	}
	// Collect the common subsequence in S1 order with its S2 positions;
	// any inversion witnesses divergence.
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

// lastIndex returns the last position of id in s, or -1.
func lastIndex(s []trace.WriteID, id trace.WriteID) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == id {
			return i
		}
	}
	return -1
}

// CheckContentDivergence detects Content Divergence between every pair of
// agents. For each pair it yields one violation per (read of the first
// agent, read of the second agent) whose sequences content-diverge,
// ordered by the first agent's read, then the second's.
func CheckContentDivergence(tr *trace.TestTrace) []Violation {
	return checkDivergence(tr, ContentDivergence)
}

// CheckOrderDivergence detects Order Divergence between every pair of
// agents, one violation per order-diverging pair of reads, in the same
// order as CheckContentDivergence. Each violation carries a witnessing
// pair of writes.
func CheckOrderDivergence(tr *trace.TestTrace) []Violation {
	return checkDivergence(tr, OrderDivergence)
}

// readStates collapses one agent's reads to their distinct observed
// sequences: states holds each distinct sequence once, in order of first
// appearance, and of[i] is the index in states of read i's sequence.
type readStates struct {
	states [][]trace.WriteID
	of     []int
}

func collapseReads(rs []trace.Read) readStates {
	st := readStates{of: make([]int, len(rs))}
	for i := range rs {
		k := len(st.states) - 1
		for k >= 0 && !slices.Equal(st.states[k], rs[i].Observed) {
			k--
		}
		if k < 0 {
			k = len(st.states)
			st.states = append(st.states, rs[i].Observed)
		}
		st.of[i] = k
	}
	return st
}

// divergence is the verdict on one pair of observed sequences: whether
// they diverge and, for order divergence, the witnessing writes.
type divergence struct {
	diverged bool
	x, y     trace.WriteID
}

// checkDivergence compares every read of each pair's first agent with
// every read of its second, as the definitions prescribe. A verdict
// depends only on the two observed sequences, so each pair of distinct
// states is decided once and every pair of reads looks its verdict up.
func checkDivergence(tr *trace.TestTrace, kind Anomaly) []Violation {
	reads := tr.ReadsByAgent()
	states := make(map[trace.AgentID]readStates, len(reads))
	for ag, rs := range reads {
		states[ag] = collapseReads(rs)
	}
	var (
		out  []Violation
		memo []divergence
	)
	for _, p := range Pairs(tr) {
		a, b := states[p.A], states[p.B]
		nb := len(b.states)
		memo = memo[:0]
		for _, sa := range a.states {
			for _, sb := range b.states {
				memo = append(memo, decide(sa, sb, kind))
			}
		}
		for i, ka := range a.of {
			row := memo[ka*nb : (ka+1)*nb]
			for _, kb := range b.of {
				if d := row[kb]; d.diverged {
					out = append(out, Violation{
						Anomaly:   kind,
						Agent:     p.A,
						Other:     p.B,
						ReadIndex: i,
						Write:     d.x,
						Write2:    d.y,
					})
				}
			}
		}
	}
	return out
}

// decide evaluates the kind's divergence condition on one pair of
// sequences.
func decide(s1, s2 []trace.WriteID, kind Anomaly) divergence {
	if kind == ContentDivergence {
		return divergence{diverged: contentDiverged(s1, s2)}
	}
	x, y, ok := orderDiverged(s1, s2)
	return divergence{diverged: ok, x: x, y: y}
}

// WindowResult summarizes the divergence windows observed between one pair
// of agents in one test (Section III, quantitative metrics).
type WindowResult struct {
	Pair Pair
	// Largest is the longest contiguous interval during which the
	// divergence condition held on the corrected global timeline. The
	// paper reports this value per pair per test.
	Largest time.Duration
	// Total is the sum of all divergence intervals.
	Total time.Duration
	// Count is the number of distinct divergence intervals.
	Count int
	// Converged reports whether the condition was false after the final
	// read of the test; the paper excludes non-converged runs from its
	// CDFs and reports their fraction separately.
	Converged bool
}

// ContentDivergenceWindows computes, for every agent pair, the windows
// during which the pair's most recent reads content-diverged. Timestamps
// are corrected to reference time with the trace's clock deltas; windows
// are measured between read-completion events, mirroring the paper's
// "as determined by the most recent read" rule.
func ContentDivergenceWindows(tr *trace.TestTrace) []WindowResult {
	return divergenceWindows(tr, contentDiverged)
}

// OrderDivergenceWindows computes order-divergence windows per agent pair.
func OrderDivergenceWindows(tr *trace.TestTrace) []WindowResult {
	return divergenceWindows(tr, OrderDiverged)
}

// timelineEvent is one read on the corrected global timeline.
type timelineEvent struct {
	at       time.Time
	observed []trace.WriteID
}

// timelines returns each agent's reads as corrected-time events, ordered
// by time and, on ties, by invocation.
func timelines(tr *trace.TestTrace) map[trace.AgentID][]timelineEvent {
	reads := tr.ReadsByAgent()
	out := make(map[trace.AgentID][]timelineEvent, len(reads))
	for ag, rs := range reads {
		evs := make([]timelineEvent, len(rs))
		for i := range rs {
			evs[i] = timelineEvent{at: tr.Corrected(ag, rs[i].Returned), observed: rs[i].Observed}
		}
		// Reads return in invocation order unless they overlapped; only
		// then does the stream need sorting.
		for i := 1; i < len(evs); i++ {
			if evs[i].at.Before(evs[i-1].at) {
				slices.SortStableFunc(evs, func(x, y timelineEvent) int { return x.at.Compare(y.at) })
				break
			}
		}
		out[ag] = evs
	}
	return out
}

func divergenceWindows(tr *trace.TestTrace, diverged func(s1, s2 []trace.WriteID) bool) []WindowResult {
	agents := timelines(tr)
	var out []WindowResult
	for _, p := range Pairs(tr) {
		evA, evB := agents[p.A], agents[p.B]
		res := WindowResult{Pair: p, Converged: true}
		var (
			lastA, lastB  []trace.WriteID
			haveA, haveB  bool
			inWindow      bool
			windowStart   time.Time
			lastEventTime time.Time
		)
		closeWindow := func(end time.Time) {
			d := end.Sub(windowStart)
			if d < 0 {
				d = 0
			}
			res.Total += d
			res.Count++
			if d > res.Largest {
				res.Largest = d
			}
		}
		// Merge the pair's streams into one corrected-time sequence; on
		// equal times the first agent's read comes first.
		for i, j := 0, 0; i < len(evA) || j < len(evB); {
			var at time.Time
			if j == len(evB) || (i < len(evA) && !evB[j].at.Before(evA[i].at)) {
				at, lastA, haveA = evA[i].at, evA[i].observed, true
				i++
			} else {
				at, lastB, haveB = evB[j].at, evB[j].observed, true
				j++
			}
			lastEventTime = at
			cond := haveA && haveB && diverged(lastA, lastB)
			switch {
			case cond && !inWindow:
				inWindow = true
				windowStart = at
			case !cond && inWindow:
				inWindow = false
				closeWindow(at)
			}
		}
		if inWindow {
			// Still diverged at the end of the test.
			res.Converged = false
			closeWindow(lastEventTime)
		}
		out = append(out, res)
	}
	return out
}
