//go:build go1.23

package vtime

import "iter"

// maxIdleWorkers caps the parked workers one Sim keeps for reuse. A
// worker that finishes its body while its Sim's free list is full stops
// instead of parking.
const maxIdleWorkers = 64

// worker is a coroutine that runs one Sim's actor bodies one after
// another. Wait resumes it; it yields back to Wait when its actor sleeps,
// joins a group, or finishes its body. Reused workers keep the stack
// their earlier bodies grew, so an actor does not pay for stack growth
// again each time one starts.
type worker struct {
	f func()    // the body to run; nil while parked
	g *simGroup // f's group, or nil

	sleep event // the wake-up of this worker's pending Sleep

	resume func() (done, ok bool) // runs until the next yield; done reports the body's end
	stop   func()
	yield  func(done bool) bool
}

// startLocked counts f as a live actor (a member of g when g is non-nil)
// and queues it on the Sim's most recently parked (warmest) worker, or
// on a new one when none is idle. Caller holds s.mu.
func (s *Sim) startLocked(f func(), g *simGroup) {
	s.alive++
	var w *worker
	if n := len(s.idle); n > 0 {
		w = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		w = &worker{}
		w.sleep.w = w
		w.resume, w.stop = iter.Pull(w.run)
	}
	w.f, w.g = f, g
	s.ready = append(s.ready, w)
}

// run is the worker's coroutine body: each body handed to the worker,
// then a yield reporting its end, until the worker is stopped.
func (w *worker) run(yield func(done bool) bool) {
	w.yield = yield
	for {
		w.f()
		if !yield(true) {
			return
		}
	}
}
