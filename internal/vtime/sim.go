package vtime

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Sim is a discrete-event scheduler implementing Clock with virtual time.
//
// Logical processes ("actors") are started with Go, via a Group, or by an
// AfterFunc timer firing. Each runs as a coroutine, on a pooled worker
// that earlier actors may have used (see worker.go), and every actor runs
// inside Wait: the goroutine that calls Wait resumes one ready actor at a
// time, in the order they became ready, until it sleeps, joins a Group or
// returns. When no actor is ready, Wait advances the virtual clock to the
// earliest pending event and readies its owner. A Sim therefore executes
// arbitrarily long simulated timelines in wall-clock time proportional
// only to the work performed, and no event costs a goroutine handoff.
//
// Actors must not block on ordinary channels or locks held across waits;
// all inter-actor waiting must go through Sleep, AfterFunc or Group.Join.
// Blocking otherwise stalls the whole Sim.
type Sim struct {
	mu sync.Mutex

	now time.Time
	// start and elapsed publish now without mu: now is always
	// start.Add(elapsed), stored on every advance, so Now — the
	// engine's most frequent call — is one atomic load, and a lane
	// worker reading another goroutine's running Sim stays race-free.
	start   time.Time
	elapsed atomic.Int64

	seq   uint64
	queue eventQueue
	alive int // actors started and not yet finished

	ready []*worker // actors to resume, FIFO from ready[head]
	head  int
	cur   *worker // the actor Wait resumed last

	idle []*worker // parked workers, reused LIFO; see startLocked
}

var _ Runtime = (*Sim)(nil)

// NewSim returns a Sim whose virtual clock starts at start.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start, start: start}
}

// Runtime is the execution environment shared by simulated and live runs:
// a clock plus the ability to start concurrent actors and wait for them.
type Runtime interface {
	Clock

	// Go starts f as a new concurrent actor.
	Go(f func())

	// NewGroup returns a Group for starting actors and joining on their
	// completion.
	NewGroup() Group
}

// Group tracks a set of actors so a parent can wait for all of them.
type Group interface {
	// Go starts f as an actor belonging to the group.
	Go(f func())

	// Join blocks the caller until every actor started via Go has
	// returned. Join may be called once actors have been started.
	Join()
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time {
	return s.start.Add(time.Duration(s.elapsed.Load()))
}

// setNowLocked advances the virtual clock to t. Caller holds mu.
func (s *Sim) setNowLocked(t time.Time) {
	s.now = t
	s.elapsed.Store(int64(t.Sub(s.start)))
}

// Since returns the virtual time elapsed since t.
func (s *Sim) Since(t time.Time) time.Duration {
	return s.Now().Sub(t)
}

// Sleep parks the calling actor for d of virtual time. It panics when
// called outside an actor.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	w := s.actorLocked("Sleep")
	at := s.now.Add(d)
	// Fast path: no other actor is ready and no pending event is due
	// before the wake-up, so advancing the clock here is exactly what
	// parking and re-waking would do, minus the heap traffic and two
	// coroutine switches. A strict Before keeps same-instant events
	// firing in FIFO order.
	if s.head == len(s.ready) && (s.queue.Len() == 0 || at.Before(s.queue[0].at)) {
		s.setNowLocked(at)
		s.mu.Unlock()
		return
	}
	// An actor has at most one Sleep pending, so its worker's own event
	// serves every one.
	w.sleep.at = at
	s.push(&w.sleep)
	s.mu.Unlock()
	w.yield(false)
}

// AfterFunc schedules f to run as a new actor after d of virtual time.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := &event{s: s, at: s.now.Add(d), fn: f}
	s.push(ev)
	return ev
}

// Go starts f as a new actor. Called before Wait or from inside an actor,
// it queues f, and f runs inside Wait.
func (s *Sim) Go(f func()) {
	s.mu.Lock()
	s.startLocked(f, nil)
	s.mu.Unlock()
}

// NewGroup returns a scheduler-aware Group.
func (s *Sim) NewGroup() Group { return &simGroup{s: s} }

// Wait runs the actors, resuming one at a time from the calling
// goroutine, which must not be an actor, until all have finished. A panic in an actor body surfaces from
// Wait, after which the Sim must not be used again.
func (s *Sim) Wait() {
	var done bool
	for w := s.next(nil, false); w != nil; w = s.next(w, done) {
		done, _ = w.resume()
	}
}

// next records how w's last run ended, finished when done, and returns
// the next actor to resume, advancing virtual time while none is ready.
// Once every actor has finished it releases the parked workers and
// returns nil.
func (s *Sim) next(w *worker, done bool) *worker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if done {
		s.finishLocked(w)
	}
	for s.head == len(s.ready) {
		if s.alive == 0 {
			for i, idle := range s.idle {
				idle.stop()
				s.idle[i] = nil
			}
			s.idle = s.idle[:0]
			s.cur = nil
			return nil
		}
		s.advanceLocked()
	}
	w = s.ready[s.head]
	s.ready[s.head] = nil
	if s.head++; s.head == len(s.ready) {
		s.ready, s.head = s.ready[:0], 0
	}
	s.cur = w
	return w
}

// Elapsed returns the virtual time elapsed since t0.
func (s *Sim) Elapsed(t0 time.Time) time.Duration {
	return s.Now().Sub(t0)
}

// actorLocked returns the running actor's worker, or releases mu and
// panics naming op when the caller is not an actor. Caller holds mu.
func (s *Sim) actorLocked(op string) *worker {
	if s.cur == nil {
		s.mu.Unlock()
		panic("vtime: " + op + " called outside an actor; start the caller with Go and run it with Wait")
	}
	return s.cur
}

// push adds ev to the queue, stamping its FIFO sequence number.
// Caller holds mu.
func (s *Sim) push(ev *event) {
	ev.seq = s.seq
	s.seq++
	heap.Push(&s.queue, ev)
}

// advanceLocked jumps virtual time to the earliest pending event and
// readies its owner: the actor sleeping on it, or a new actor running
// its timer callback. Caller holds mu, and no actor is ready.
func (s *Sim) advanceLocked() {
	for s.queue.Len() > 0 {
		ev, ok := heap.Pop(&s.queue).(*event)
		if !ok || ev.cancelled {
			continue
		}
		ev.fired = true
		s.setNowLocked(ev.at)
		if ev.w != nil {
			s.ready = append(s.ready, ev.w)
		} else {
			s.startLocked(ev.fn, nil)
		}
		return
	}
	if s.alive > 0 {
		panic(fmt.Sprintf(
			"vtime: deadlock at %s: %d actor(s) parked with no pending events",
			s.now.Format(time.RFC3339Nano), s.alive))
	}
}

// finishLocked records the end of w's body, and of its membership in
// its group: when it was the group's last member, the group's joiners
// become ready. w then parks for reuse, or stops when the Sim already
// keeps maxIdleWorkers. Caller holds mu.
func (s *Sim) finishLocked(w *worker) {
	if g := w.g; g != nil {
		g.count--
		if g.count == 0 {
			s.ready = append(s.ready, g.waiters...)
			g.waiters = nil
		}
	}
	w.f, w.g = nil, nil
	s.alive--
	if len(s.idle) < maxIdleWorkers {
		s.idle = append(s.idle, w)
	} else {
		w.stop()
	}
}

// simGroup is the scheduler-aware Group implementation.
type simGroup struct {
	s       *Sim
	count   int       // live members; guarded by s.mu
	waiters []*worker // actors joined on the group; guarded by s.mu
}

func (g *simGroup) Go(f func()) {
	s := g.s
	s.mu.Lock()
	g.count++
	s.startLocked(f, g)
	s.mu.Unlock()
}

// Join parks the calling actor until every member has finished. It
// panics when called outside an actor.
func (g *simGroup) Join() {
	s := g.s
	s.mu.Lock()
	w := s.actorLocked("Join")
	if g.count == 0 {
		s.mu.Unlock()
		return
	}
	g.waiters = append(g.waiters, w)
	s.mu.Unlock()
	w.yield(false)
}

// event is a pending wake-up of w (w != nil) or a timer callback
// (fn != nil). A timer's event is its Timer.
type event struct {
	s         *Sim
	at        time.Time
	seq       uint64
	w         *worker
	fn        func()
	cancelled bool
	fired     bool
}

// Stop cancels a pending timer callback.
func (ev *event) Stop() bool {
	ev.s.mu.Lock()
	defer ev.s.mu.Unlock()
	if ev.fired || ev.cancelled {
		return false
	}
	ev.cancelled = true
	return true
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) {
	ev, ok := x.(*event)
	if !ok {
		return
	}
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
