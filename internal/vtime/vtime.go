// Package vtime provides the time abstraction used throughout conprobe.
//
// All components (agents, services, the network model, rate limiters) are
// written against the Clock interface. Two implementations exist:
//
//   - Real: thin wrappers around the standard time package, used when
//     probing a live service over HTTP.
//   - Sim: a discrete-event scheduler with virtual time, used by the
//     measurement campaigns and the benchmark harness so that a month-long
//     experiment executes in seconds of wall-clock time.
//
// The Sim scheduler runs each logical process ("actor") as a coroutine
// inside Sim.Wait, one ready actor at a time. Virtual time only advances
// when every live actor is parked in Sleep or Group.Join; the scheduler
// then jumps to the earliest pending wake-up. Cross-actor blocking must
// therefore go through the primitives offered here (Sleep, AfterFunc
// timers, Group.Join); blocking on an ordinary channel from inside an
// actor would stall virtual time.
package vtime

import "time"

// Clock is the time source used by all conprobe components.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time

	// Sleep pauses the calling actor for d. A non-positive d returns
	// immediately.
	Sleep(d time.Duration)

	// AfterFunc schedules f to run after d elapses. f runs on its own
	// actor. The returned Timer can cancel the call before it fires.
	AfterFunc(d time.Duration, f func()) Timer

	// Since returns the time elapsed since t.
	Since(t time.Time) time.Duration
}

// Timer is a handle to a pending AfterFunc call.
type Timer interface {
	// Stop cancels the timer. It reports whether the call was stopped
	// before it fired.
	Stop() bool
}
