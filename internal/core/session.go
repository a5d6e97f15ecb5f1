package core

import "conprobe/internal/trace"

// sessionCheckers are the session checkers, in SessionAnomalies order.
var sessionCheckers = [...]struct {
	anomaly Anomaly
	check   func(sessionTrace) []Violation
}{
	{ReadYourWrites, sessionTrace.readYourWrites},
	{MonotonicWrites, sessionTrace.monotonicWrites},
	{MonotonicReads, sessionTrace.monotonicReads},
	{WritesFollowsReads, sessionTrace.writesFollowsReads},
}

// SessionResult is one session checker's outcome on a trace.
type SessionResult struct {
	Anomaly    Anomaly
	Violations []Violation
}

// CheckSession runs the four session checkers over one grouping of tr
// by agent and returns their results in SessionAnomalies order.
func CheckSession(tr *trace.TestTrace) [len(sessionCheckers)]SessionResult {
	st := groupSession(tr)
	var out [len(sessionCheckers)]SessionResult
	for i, c := range sessionCheckers {
		out[i] = SessionResult{Anomaly: c.anomaly, Violations: c.check(st)}
	}
	return out
}

// sessionTrace is a trace grouped by agent for the session checkers.
// Readers and writers are listed in agent ID order, so violations come
// out in a fixed order.
type sessionTrace struct {
	tr      *trace.TestTrace
	reads   map[trace.AgentID][]trace.Read
	readers []trace.AgentID
	writes  map[trace.AgentID][]trace.Write
	writers []trace.AgentID
}

func groupSession(tr *trace.TestTrace) sessionTrace {
	st := sessionTrace{tr: tr, reads: tr.ReadsByAgent(), writes: tr.WritesByAgent()}
	st.readers = sortedAgents(st.reads)
	st.writers = sortedAgents(st.writes)
	return st
}

// CheckReadYourWrites detects Read Your Writes violations:
//
//	∃ x ∈ W : x ∉ S
//
// where W is the set of writes completed by a client before it invoked a
// read returning S. One violation is reported per (read, missing write).
func CheckReadYourWrites(tr *trace.TestTrace) []Violation {
	return groupSession(tr).readYourWrites()
}

func (st sessionTrace) readYourWrites() []Violation {
	var out []Violation
	for _, agent := range st.readers {
		reads := st.reads[agent]
		for ri := range reads {
			r := &reads[ri]
			for _, w := range st.writes[agent] {
				// Only writes acknowledged before the read was issued
				// are required to be visible.
				if w.Returned.After(r.Invoked) {
					continue
				}
				if !r.Contains(w.ID) {
					out = append(out, Violation{
						Anomaly:   ReadYourWrites,
						Agent:     agent,
						ReadIndex: ri,
						Write:     w.ID,
					})
				}
			}
		}
	}
	return out
}

// CheckMonotonicWrites detects Monotonic Writes violations:
//
//	∃ x, y ∈ W : W(x) ≺ W(y) ∧ y ∈ S ∧ (x ∉ S ∨ S(y) ≺ S(x))
//
// for W the issue-ordered writes of any single client and S the sequence
// returned by a read issued by any client. One violation is reported per
// (read, offending write pair).
func CheckMonotonicWrites(tr *trace.TestTrace) []Violation {
	return groupSession(tr).monotonicWrites()
}

func (st sessionTrace) monotonicWrites() []Violation {
	var out []Violation
	for _, reader := range st.readers {
		reads := st.reads[reader]
		for ri := range reads {
			r := &reads[ri]
			for _, writer := range st.writers {
				ws := st.writes[writer]
				for i := 0; i < len(ws); i++ {
					for j := i + 1; j < len(ws); j++ {
						x, y := ws[i], ws[j]
						py := r.Position(y.ID)
						if py < 0 {
							continue // y not visible: no constraint
						}
						px := r.Position(x.ID)
						if px < 0 || py < px {
							out = append(out, Violation{
								Anomaly:   MonotonicWrites,
								Agent:     reader,
								ReadIndex: ri,
								Write:     x.ID,
								Write2:    y.ID,
							})
						}
					}
				}
			}
		}
	}
	return out
}

// CheckMonotonicReads detects Monotonic Reads violations:
//
//	∃ x ∈ S1 : x ∉ S2
//
// for S1, S2 returned by two reads of the same client, in that order. A
// high-water implementation is used: each read is compared against the set
// of all writes the client observed in earlier reads, and one violation is
// reported per (read, disappeared write). This counts each disappearance
// once rather than once per earlier read that saw the write.
func CheckMonotonicReads(tr *trace.TestTrace) []Violation {
	return groupSession(tr).monotonicReads()
}

func (st sessionTrace) monotonicReads() []Violation {
	var (
		out  []Violation
		seen highWater
	)
	for _, agent := range st.readers {
		reads := st.reads[agent]
		seen.reset()
		for ri := range reads {
			r := &reads[ri]
			for _, id := range seen.order {
				if !r.Contains(id) {
					out = append(out, Violation{
						Anomaly:   MonotonicReads,
						Agent:     agent,
						ReadIndex: ri,
						Write:     id,
					})
				}
			}
			seen.add(r.Observed)
		}
	}
	return out
}

// highWater is the set of writes an agent has observed so far, kept in
// first-sighting order beside the set so that violations against it
// come out in a fixed order.
type highWater struct {
	order []trace.WriteID
	set   map[trace.WriteID]bool
}

// add records the writes in ids not seen before.
func (h *highWater) add(ids []trace.WriteID) {
	if h.set == nil {
		h.set = make(map[trace.WriteID]bool)
	}
	for _, id := range ids {
		if !h.set[id] {
			h.set[id] = true
			h.order = append(h.order, id)
		}
	}
}

// reset empties the set, keeping its storage for the next agent.
func (h *highWater) reset() {
	h.order = h.order[:0]
	clear(h.set)
}

// CheckWritesFollowsReads detects Writes Follows Reads violations:
//
//	w ∈ S2 ∧ ∃ x ∈ S1 : x ∉ S2
//
// where w is a write issued by a client after observing x in a read
// returning S1, and S2 is returned by a read issued by any client. The
// causal dependency is recorded by the test harness in Write.Trigger
// (Test 1 sets M2→M3 and M4→M5, the only designated trigger pairs). One
// violation is reported per (read, dependent write).
func CheckWritesFollowsReads(tr *trace.TestTrace) []Violation {
	return groupSession(tr).writesFollowsReads()
}

func (st sessionTrace) writesFollowsReads() []Violation {
	var deps []trace.Write
	for _, w := range st.tr.Writes {
		if w.Trigger != "" {
			deps = append(deps, w)
		}
	}
	if len(deps) == 0 {
		return nil
	}
	var out []Violation
	for _, reader := range st.readers {
		reads := st.reads[reader]
		for ri := range reads {
			r := &reads[ri]
			for _, w := range deps {
				if r.Contains(w.ID) && !r.Contains(w.Trigger) {
					out = append(out, Violation{
						Anomaly:   WritesFollowsReads,
						Agent:     reader,
						ReadIndex: ri,
						Write:     w.Trigger,
						Write2:    w.ID,
					})
				}
			}
		}
	}
	return out
}
