package core

import (
	"slices"
	"sort"
	"sync"

	"conprobe/internal/trace"
)

// Stream is an online anomaly detector: operations are fed as they
// complete and violations are reported by the read that exposes them.
// It powers live monitoring (cmd/conwatch), where waiting for a full
// test trace is not an option.
//
// Session guarantees are evaluated exactly as the batch checkers do.
// Divergence anomalies are edge-triggered: a violation is emitted when a
// pair of agents' most recent reads enters the divergence condition, and
// again only after the pair has converged in between. Windows are not
// computed online — they need the clock-delta-corrected timeline and are
// left to the offline analysis.
type Stream struct {
	mu sync.Mutex

	// writes by writer, in issue order.
	writes map[trace.AgentID][]trace.Write
	byID   map[trace.WriteID]trace.Write
	// seen is each agent's monotonic-reads high water.
	seen map[trace.AgentID]*highWater
	// latest is each agent's most recent read sequence.
	latest map[trace.AgentID][]trace.WriteID
	// readCount indexes reads per agent.
	readCount map[trace.AgentID]int
	// diverged tracks which pairs are currently in each condition.
	contentDiv map[Pair]bool
	orderDiv   map[Pair]bool
}

// NewStream returns an empty online detector.
func NewStream() *Stream {
	return &Stream{
		writes:     make(map[trace.AgentID][]trace.Write),
		byID:       make(map[trace.WriteID]trace.Write),
		seen:       make(map[trace.AgentID]*highWater),
		latest:     make(map[trace.AgentID][]trace.WriteID),
		readCount:  make(map[trace.AgentID]int),
		contentDiv: make(map[Pair]bool),
		orderDiv:   make(map[Pair]bool),
	}
}

// ObserveWrite records a completed write.
func (s *Stream) ObserveWrite(w trace.Write) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes[w.Agent] = append(s.writes[w.Agent], w)
	sort.SliceStable(s.writes[w.Agent], func(i, j int) bool {
		return s.writes[w.Agent][i].Seq < s.writes[w.Agent][j].Seq
	})
	s.byID[w.ID] = w
}

// ObserveRead records a completed read and returns the violations it
// exposes.
func (s *Stream) ObserveRead(r trace.Read) []Violation {
	s.mu.Lock()
	defer s.mu.Unlock()

	idx := s.readCount[r.Agent]
	s.readCount[r.Agent]++
	var out []Violation

	// Read Your Writes: own completed writes must be present.
	for _, w := range s.writes[r.Agent] {
		if w.Returned.After(r.Invoked) {
			continue
		}
		if !readContains(&r, w.ID) {
			out = append(out, Violation{
				Anomaly: ReadYourWrites, Agent: r.Agent, ReadIndex: idx, Write: w.ID,
			})
		}
	}

	// Monotonic Writes: every writer's issue order must be respected.
	for _, writer := range sortedAgents(s.writes) {
		ws := s.writes[writer]
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				py := r.Position(ws[j].ID)
				if py < 0 {
					continue
				}
				px := r.Position(ws[i].ID)
				if px < 0 || py < px {
					out = append(out, Violation{
						Anomaly: MonotonicWrites, Agent: r.Agent, ReadIndex: idx,
						Write: ws[i].ID, Write2: ws[j].ID,
					})
				}
			}
		}
	}

	// Monotonic Reads: nothing this agent has seen may disappear.
	seen := s.seen[r.Agent]
	if seen == nil {
		seen = &highWater{}
		s.seen[r.Agent] = seen
	}
	for _, id := range seen.order {
		if !readContains(&r, id) {
			out = append(out, Violation{
				Anomaly: MonotonicReads, Agent: r.Agent, ReadIndex: idx, Write: id,
			})
		}
	}
	seen.add(r.Observed)

	// Writes Follows Reads: dependent writes require their triggers.
	for _, id := range r.Observed {
		w, ok := s.byID[id]
		if !ok || w.Trigger == "" {
			continue
		}
		if !readContains(&r, w.Trigger) {
			out = append(out, Violation{
				Anomaly: WritesFollowsReads, Agent: r.Agent, ReadIndex: idx,
				Write: w.Trigger, Write2: w.ID,
			})
		}
	}

	// Divergence against every other agent's latest read,
	// edge-triggered.
	s.latest[r.Agent] = append([]trace.WriteID(nil), r.Observed...)
	for _, other := range sortedAgents(s.latest) {
		if other == r.Agent {
			continue
		}
		seq := s.latest[other]
		p := MakePair(r.Agent, other)
		cd := contentDiverged(r.Observed, seq)
		if cd && !s.contentDiv[p] {
			out = append(out, Violation{
				Anomaly: ContentDivergence, Agent: p.A, Other: p.B, ReadIndex: idx,
			})
		}
		s.contentDiv[p] = cd
		x, y, od := orderDiverged(r.Observed, seq)
		if od && !s.orderDiv[p] {
			out = append(out, Violation{
				Anomaly: OrderDivergence, Agent: p.A, Other: p.B, ReadIndex: idx,
				Write: x, Write2: y,
			})
		}
		s.orderDiv[p] = od
	}
	return out
}

// Diverged reports whether the pair is currently content- or
// order-diverged according to the latest reads.
func (s *Stream) Diverged(a, b trace.AgentID) (content, order bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := MakePair(a, b)
	return s.contentDiv[p], s.orderDiv[p]
}

// Reset clears all state (e.g. between monitoring epochs).
func (s *Stream) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes = make(map[trace.AgentID][]trace.Write)
	s.byID = make(map[trace.WriteID]trace.Write)
	s.seen = make(map[trace.AgentID]*highWater)
	s.latest = make(map[trace.AgentID][]trace.WriteID)
	s.readCount = make(map[trace.AgentID]int)
	s.contentDiv = make(map[Pair]bool)
	s.orderDiv = make(map[Pair]bool)
}

// sortedAgents returns the agents keyed in m in ascending ID order, so a
// read that exposes violations against several agents reports them in a
// fixed order.
func sortedAgents[V any](m map[trace.AgentID]V) []trace.AgentID {
	out := make([]trace.AgentID, 0, len(m))
	for ag := range m {
		out = append(out, ag)
	}
	slices.Sort(out)
	return out
}

func readContains(r *trace.Read, id trace.WriteID) bool {
	return r.Contains(id)
}
