package vtime

// maxIdleWorkers caps the parked actor workers one Sim keeps for reuse.
// A worker that finishes its body while its Sim's free list is full
// exits instead of parking.
const maxIdleWorkers = 64

// actor is one body to run on a worker: f, then the Sim's finish
// bookkeeping (for g's membership too when g is non-nil).
type actor struct {
	g *simGroup
	f func()
}

// worker is a goroutine that runs one Sim's actor bodies one after
// another. Reused workers keep the stack their earlier bodies grew, so
// an actor does not pay for stack growth again each time one starts.
type worker struct {
	s    *Sim
	work chan actor // buffered 1: handing off never blocks the spawner
}

// spawnLocked runs a on the Sim's most recently parked (warmest) worker,
// or on a new one when none is idle. The caller holds s.mu and has
// already counted the actor as alive and runnable, so which goroutine
// runs the body cannot affect the schedule. The free list is the Sim's
// own and guarded by s.mu, so Sims running side by side share no lock.
func (s *Sim) spawnLocked(a actor) {
	if n := len(s.idle); n > 0 {
		w := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		w.work <- a
		return
	}
	w := &worker{s: s, work: make(chan actor, 1)}
	go w.run(a)
}

// run executes a, then every body handed to the worker while it is
// parked, until its Sim releases it or has no room to park it.
func (w *worker) run(a actor) {
	for {
		a.f()
		if !w.s.finish(w, a.g) {
			return
		}
		var ok bool
		if a, ok = <-w.work; !ok {
			return
		}
	}
}
