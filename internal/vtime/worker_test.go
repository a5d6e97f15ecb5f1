package vtime

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestActorWorkersBounded runs many Sims, several at a time, each with a
// group of actors plus timer callbacks. Every body must run exactly once
// and virtual time must come out the same in every Sim, whichever worker
// ran what; once every Sim has drained, none of their workers may be
// left beside the goroutines that were there before.
func TestActorWorkersBounded(t *testing.T) {
	const (
		sims   = 1000
		actors = 3
		timers = 2
		lanes  = 4
	)
	baseline := runtime.NumGoroutine()
	var (
		ran   [sims][actors + timers]atomic.Int32
		ended [sims]time.Time
		wg    sync.WaitGroup
		next  atomic.Int32
	)
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < sims; i = int(next.Add(1)) - 1 {
				s := NewSim(simEpoch)
				s.Go(func() {
					g := s.NewGroup()
					for a := 0; a < actors; a++ {
						g.Go(func() {
							s.Sleep(time.Duration(a+1) * time.Millisecond)
							ran[i][a].Add(1)
						})
					}
					for k := 0; k < timers; k++ {
						s.AfterFunc(time.Duration(k+1)*time.Millisecond, func() {
							ran[i][actors+k].Add(1)
						})
					}
					g.Join()
					ended[i] = s.Now()
				})
				s.Wait()
			}
		}()
	}
	wg.Wait()
	want := simEpoch.Add(actors * time.Millisecond)
	for i := range ran {
		for j := range ran[i] {
			if n := ran[i][j].Load(); n != 1 {
				t.Fatalf("sim %d body %d ran %d times, want 1", i, j, n)
			}
		}
		if !ended[i].Equal(want) {
			t.Fatalf("sim %d joined at %v, want %v", i, ended[i], want)
		}
	}
	if n := settleGoroutines(baseline); n > baseline {
		t.Fatalf("%d goroutines left after every Sim drained, want at most the baseline %d", n, baseline)
	}
}

// TestActorWorkersCapped finishes more actors at once than a Sim may
// park: while the Sim is still busy it keeps exactly maxIdleWorkers
// workers and the rest exit, and once it drains the parked ones exit
// too.
func TestActorWorkersCapped(t *testing.T) {
	const actors = 4 * maxIdleWorkers
	baseline := runtime.NumGoroutine()
	s := NewSim(simEpoch)
	var ran atomic.Int32
	var parked, busy int
	s.Go(func() {
		g := s.NewGroup()
		for a := 0; a < actors; a++ {
			g.Go(func() {
				s.Sleep(time.Millisecond)
				ran.Add(1)
			})
		}
		g.Join()
		s.mu.Lock()
		parked = len(s.idle)
		s.mu.Unlock()
		// The root actor's own worker is running beside the parked ones.
		busy = settleGoroutines(baseline + 1 + maxIdleWorkers)
	})
	s.Wait()
	if n := ran.Load(); n != actors {
		t.Fatalf("%d actors ran, want %d", n, actors)
	}
	if parked != maxIdleWorkers {
		t.Fatalf("%d workers parked, want the cap %d", parked, maxIdleWorkers)
	}
	if limit := baseline + 1 + maxIdleWorkers; busy > limit {
		t.Fatalf("%d goroutines while the Sim was busy, want at most %d", busy, limit)
	}
	if n := settleGoroutines(baseline); n > baseline {
		t.Fatalf("%d goroutines left after the Sim drained, want at most the baseline %d", n, baseline)
	}
}

// settleGoroutines waits up to a few seconds for the goroutine count to
// fall to limit and returns the last count seen. A worker exits just
// after the bookkeeping that lets the test proceed, so the count can
// lag briefly.
func settleGoroutines(limit int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > limit && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// stackDepth recurses through frames of about 512 bytes each so an actor
// body uses a few KB of stack, as campaign agents do.
//
//go:noinline
func stackDepth(n int) byte {
	var buf [512]byte
	buf[n%len(buf)] = byte(n)
	if n == 0 {
		return buf[0]
	}
	return stackDepth(n-1) + buf[(n*7)%len(buf)]
}

// BenchmarkSimSpawn measures starting and joining actors: each iteration
// is one group of three actors that use a few KB of stack and sleep,
// joined by their parent.
func BenchmarkSimSpawn(b *testing.B) {
	s := NewSim(simEpoch)
	var sink atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	s.Go(func() {
		for i := 0; i < b.N; i++ {
			g := s.NewGroup()
			for a := 0; a < 3; a++ {
				g.Go(func() {
					sink.Add(int32(stackDepth(8)))
					s.Sleep(time.Duration(a+1) * time.Millisecond)
				})
			}
			g.Join()
		}
	})
	s.Wait()
}
