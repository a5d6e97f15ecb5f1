package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// BenchmarkShardedStoreHotPath measures the replica hot path under
// contention: 8 goroutines issuing a 90/10 read/write mix against a
// three-site strong-mode cluster. The baseline variant reproduces the
// pre-shard store — one lock stripe, and every read rendered by the
// reference's full sort (refRead) — while the sharded variant uses 16
// stripes and the generation-invalidated timeline cache.
// scripts/bench.sh records the ratio in BENCH_<host>.json.
func BenchmarkShardedStoreHotPath(b *testing.B) {
	for _, bc := range []struct {
		name   string
		shards int
		read   func(*Cluster, simnet.Site) error
	}{
		{name: "baseline", shards: 1, read: func(c *Cluster, dc simnet.Site) error {
			refRead(c, dc)
			return nil
		}},
		{name: "sharded", shards: 16, read: func(c *Cluster, dc simnet.Site) error {
			_, err := c.Read(dc)
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sites := []simnet.Site{simnet.DCWest, simnet.DCEast, simnet.DCEurope}
			net := simnet.DefaultTopology(1)
			c, err := NewCluster(vtime.Real{}, net, Config{
				Mode:   Strong,
				Sites:  sites,
				Shards: bc.shards,
			}, 1)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 2048; i++ {
				if _, err := c.Write(sites[i%len(sites)], fmt.Sprintf("seed%d", i), "a", ""); err != nil {
					b.Fatal(err)
				}
			}

			const workers = 8
			per := (b.N + workers - 1) / workers
			var wid atomic.Uint64
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					g := wid.Add(1)
					for i := 0; i < per; i++ {
						if i%10 == 0 {
							id := fmt.Sprintf("g%d-w%d", g, i)
							if _, err := c.Write(sites[i%len(sites)], id, "bench", ""); err != nil {
								b.Error(err)
								return
							}
						} else {
							if err := bc.read(c, sites[i%len(sites)]); err != nil {
								b.Error(err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkStoreReadCached isolates the timeline-cache fast path: a
// quiescent replica read over and over. This is the common case during
// a campaign's read phases, where many probes land between writes.
func BenchmarkStoreReadCached(b *testing.B) {
	sites := []simnet.Site{simnet.DCWest, simnet.DCEast}
	net := simnet.DefaultTopology(1)
	c, err := NewCluster(vtime.Real{}, net, Config{Mode: Strong, Sites: sites}, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		if _, err := c.Write(sites[0], fmt.Sprintf("seed%d", i), "a", ""); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(sites[0]); err != nil {
			b.Fatal(err)
		}
	}
}
