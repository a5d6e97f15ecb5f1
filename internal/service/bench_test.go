package service

import (
	"strconv"
	"testing"
	"time"

	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// BenchmarkServiceRead is the simulated service's layer budget: one
// fbgroup read from Oregon over a replica holding a Test 1's six
// posts, with the profile's API delay and network legs as virtual-time
// sleeps. "view" is the entry-level read the probe engine records from;
// "posts" adds Read's conversion to []Post.
func BenchmarkServiceRead(b *testing.B) {
	for _, mode := range []string{"view", "posts"} {
		b.Run(mode, func(b *testing.B) {
			sim := vtime.NewSim(epoch)
			svc, err := NewSimulated(sim, simnet.DefaultTopology(1), FBGroup(), 1)
			if err != nil {
				b.Fatal(err)
			}
			sim.Go(func() {
				for i := 0; i < 6; i++ {
					if err := svc.Write(simnet.Oregon, Post{ID: "m" + strconv.Itoa(i), Author: "agent1"}); err != nil {
						b.Error(err)
						return
					}
				}
				sim.Sleep(time.Minute) // every replica has every post
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "view" {
						_, err = svc.ReadView(simnet.Oregon, "agent1")
					} else {
						_, err = svc.Read(simnet.Oregon, "agent1")
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
				b.StopTimer()
			})
			sim.Wait()
		})
	}
}
