package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Req; Parent names the span that caused this one (0 for a root).
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and counters in memory for the traced run and
// writes them out when the run ends. A nil *tracer is the untraced run:
// every method is a no-op, so the measured code paths carry no tracing
// branches beyond the nil check.
type tracer struct {
	t0     time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	// keys maps post IDs and reader labels to the request ID the load
	// generator gave the operation, so spans recorded inside the
	// program's hooks join the client's spans.
	keys sync.Map
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// newReq returns a fresh request ID (0 when untraced).
func (t *tracer) newReq() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// bind names the request an operation key (post ID or reader) belongs
// to.
func (t *tracer) bind(key string, req uint64) {
	if t != nil {
		t.keys.Store(key, req)
	}
}

// reqOf returns the request bound to key, 0 if none.
func (t *tracer) reqOf(key string) uint64 {
	if t == nil {
		return 0
	}
	if v, ok := t.keys.Load(key); ok {
		return v.(uint64)
	}
	return 0
}

// now is the tracer's clock: nanoseconds since the run started.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// record stores a finished span.
func (t *tracer) record(req uint64, name, node string, start, end int64) {
	if t == nil {
		return
	}
	id := t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, ID: id, Name: name, Node: node, Start: start, End: end})
	t.mu.Unlock()
}

// add bumps a counter recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// countersOrNil copies the counters, to subtract what set-up recorded
// (nil when untraced).
func (t *tracer) countersOrNil() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// byName returns the spans with the given name that started at or
// after since.
func (t *tracer) byName(name string, since int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.Start >= since {
			out = append(out, s)
		}
	}
	return out
}

// durationsMS returns the durations in milliseconds of the named spans
// that started at or after since.
func (t *tracer) durationsMS(name string, since int64) []float64 {
	ss := t.byName(name, since)
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.dur())
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover (overlapping children are counted once).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.dur() - time.Duration(covered)
}

// linkParents sets each request span's Parent to the innermost other
// span of the same request whose interval encloses it: the layer that
// made the call.
func linkParents(spans []span) {
	byReq := map[uint64][]int{}
	for i, s := range spans {
		if s.Req != 0 {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	for _, idx := range byReq {
		for _, i := range idx {
			best := -1
			for _, j := range idx {
				if i == j || spans[j].Start > spans[i].Start || spans[j].End < spans[i].End {
					continue
				}
				if spans[j].dur() == spans[i].dur() && j > i {
					continue // of two equal intervals, the earlier one is the parent
				}
				if best < 0 || spans[j].dur() < spans[best].dur() {
					best = j
				}
			}
			if best >= 0 {
				spans[i].Parent = spans[best].ID
			}
		}
	}
}

// dump writes every span as one JSON line to path, parents linked.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	linkParents(t.spans)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
