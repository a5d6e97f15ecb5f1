package store

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// refModel is the reference the optimised store must match probe for
// probe. It records what a scenario did — every write, every partition
// change, every Reset — and works out each delivery's apply instant
// directly: the entry is due at its write instant plus the store's
// sampled delay, and a delivery blocked by a partition at that instant
// retries one RetryInterval later, for as long as the link stays down.
// Every read then renders the applied set with one full sort
// (renderRef). It never touches the timer wheel, the pending-delivery
// heaps or the timeline caches.
type refModel struct {
	t     *testing.T
	c     *Cluster
	net   *simnet.Network
	cuts  []refCut  // the partition schedule, in time order
	sends []refSend // deliveries of the current epoch
	// failed stops reporting after the first divergence, which would
	// otherwise repeat at every later probe.
	failed bool
}

// refCut is one partition change of the link {a, b}.
type refCut struct {
	at   time.Time
	a, b simnet.Site
	down bool
}

// refSend is one entry on its way to one replica.
type refSend struct {
	e        Entry
	src, dst simnet.Site
	due      time.Time
	// inline marks an apply Write performs itself, before returning:
	// strong mode, or the origin replica with no indexing delay.
	inline bool
}

// write performs a production write and records its deliveries.
func (m *refModel) write(dc simnet.Site, id string) error {
	e, err := m.c.Write(dc, id, "a", "")
	if err != nil {
		return err
	}
	now := m.c.clock.Now()
	for _, s := range m.c.cfg.Sites {
		var d time.Duration
		switch {
		case m.c.cfg.Mode == Strong:
		case s == dc:
			d = m.c.localDelay(id, s)
		default:
			d = m.c.propagationDelay(dc, s, id)
		}
		inline := m.c.cfg.Mode == Strong || (s == dc && d == 0)
		m.sends = append(m.sends, refSend{e: e, src: dc, dst: s, due: now.Add(d), inline: inline})
	}
	return nil
}

// partition and heal change the link on the network and record it.
func (m *refModel) partition(a, b simnet.Site) {
	m.net.Partition(a, b)
	m.cuts = append(m.cuts, refCut{at: m.c.clock.Now(), a: a, b: b, down: true})
}

func (m *refModel) heal(a, b simnet.Site) {
	m.net.Heal(a, b)
	m.cuts = append(m.cuts, refCut{at: m.c.clock.Now(), a: a, b: b, down: false})
}

// reset starts a new epoch: nothing sent before it ever applies.
func (m *refModel) reset() {
	m.c.Reset()
	m.sends = nil
}

// reachable reports whether src can deliver to dst at instant at under
// the recorded partition schedule. A change of that link at exactly
// that instant races the delivery, so the scenario is rejected.
func (m *refModel) reachable(src, dst simnet.Site, at time.Time) bool {
	up := true
	for _, cut := range m.cuts {
		if cut.at.After(at) {
			break
		}
		if (cut.a == src && cut.b == dst) || (cut.a == dst && cut.b == src) {
			if cut.at.Equal(at) {
				m.t.Errorf("ambiguous scenario: link %s-%s changes at a delivery instant %v", src, dst, at)
			}
			up = !cut.down
		}
	}
	return src == dst || up
}

// appliedAt is when the send applied at its replica, if it has by now.
func (m *refModel) appliedAt(s refSend, now time.Time) (time.Time, bool) {
	if s.inline {
		return s.due, true
	}
	for at := s.due; !at.After(now); at = at.Add(m.c.cfg.RetryInterval) {
		if m.reachable(s.src, s.dst, at) {
			if at.Equal(now) {
				m.t.Errorf("ambiguous scenario: %s applies at %s at the read instant %v", s.e.ID, s.dst, now)
			}
			return at, true
		}
	}
	return time.Time{}, false
}

// read performs a production read at dc, checks it against the
// reference rendering of dc's applied set, and returns it.
func (m *refModel) read(dc simnet.Site) []Entry {
	got, err := m.c.Read(dc)
	if err != nil {
		m.t.Error(err)
		return nil
	}
	now := m.c.clock.Now()
	var applied []appliedEntry
	for _, s := range m.sends {
		if s.dst != dc {
			continue
		}
		if at, ok := m.appliedAt(s, now); ok {
			applied = append(applied, appliedEntry{e: s.e, at: at})
		}
	}
	want := renderRef(applied, refOrder(m.c), m.c.cfg.Policy, now.Add(-m.c.cfg.NormalizeAfter))
	if !m.failed && !eq(idsOf(got), idsOf(want)) {
		m.failed = true
		m.t.Errorf("read at %s, %v: store %v, reference %v", dc, now.Sub(epoch0), idsOf(got), idsOf(want))
	}
	return got
}

// refOrder is the ordering reads use in the current epoch: an epoch in
// which the hybrid pipeline keeps up reads in timestamp order.
func refOrder(c *Cluster) OrderKind {
	if c.cfg.Order == OrderHybrid && !c.hybridOn.Load() {
		return OrderTimestamp
	}
	return c.cfg.Order
}

// renderRef is the reference read of one replica: the applied set in
// arrival order — apply instant, then ArrivalSeq — re-sorted under the
// policy for OrderTimestamp, or for OrderHybrid split into a
// policy-sorted prefix of the entries created before the cutoff and the
// rest in arrival order. Every call sorts everything; nothing is cached
// or merged incrementally.
func renderRef(applied []appliedEntry, order OrderKind, p TimestampPolicy, cutoff time.Time) []Entry {
	sort.Slice(applied, func(i, j int) bool {
		if !applied[i].at.Equal(applied[j].at) {
			return applied[i].at.Before(applied[j].at)
		}
		return applied[i].e.ArrivalSeq < applied[j].e.ArrivalSeq
	})
	normalized := make([]Entry, 0, len(applied))
	var fresh []Entry
	for _, rec := range applied {
		if order == OrderTimestamp || (order == OrderHybrid && rec.e.CreatedAt.Before(cutoff)) {
			normalized = append(normalized, rec.e)
		} else {
			fresh = append(fresh, rec.e)
		}
	}
	sort.SliceStable(normalized, func(i, j int) bool { return p.less(normalized[i], normalized[j]) })
	return append(normalized, fresh...)
}

// refRead renders dc's replica straight from its shards' applied
// records through renderRef: every shard lock, one copy, one full sort
// per read — the read path before the timeline cache, kept as the
// benchmark baseline.
func refRead(c *Cluster, dc simnet.Site) []Entry {
	r := c.replicas[dc]
	for _, sh := range r.shards {
		sh.mu.Lock()
	}
	total := 0
	for _, sh := range r.shards {
		total += len(sh.recs)
	}
	applied := make([]appliedEntry, 0, total)
	for _, sh := range r.shards {
		applied = append(applied, sh.recs...)
	}
	for _, sh := range r.shards {
		sh.mu.Unlock()
	}
	return renderRef(applied, refOrder(c), c.cfg.Policy, c.clock.Now().Add(-c.cfg.NormalizeAfter))
}

// runScenario drives a workload shaped to stress the delivery scheduler
// and the read caches — jittered propagation, a West–Asia partition
// that forces retries and heals mid-round, a Reset between rounds, and
// two back-to-back probes at every replica after each write (the second
// a guaranteed cache hit) — checks every probe against refModel, and
// returns a transcript of what the probes observed. cfg.Sites must
// include DCWest and DCAsia.
func runScenario(t *testing.T, cfg Config, seed int64) string {
	t.Helper()
	sim := vtime.NewSim(epoch0)
	net := simnet.DefaultTopology(seed)
	c, err := NewCluster(sim, net, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := &refModel{t: t, c: c, net: net}
	sites := cfg.Sites
	var sb strings.Builder
	sim.Go(func() {
		rng := rand.New(rand.NewSource(23))
		for round := 0; round < 2; round++ {
			m.partition(simnet.DCWest, simnet.DCAsia)
			for i := 0; i < 25; i++ {
				if err := m.write(sites[rng.Intn(len(sites))], fmt.Sprintf("r%dw%d", round, i)); err != nil {
					t.Error(err)
					return
				}
				sim.Sleep(time.Duration(rng.Intn(140)) * time.Millisecond)
				if i == 15 {
					m.heal(simnet.DCWest, simnet.DCAsia)
				}
				for _, s := range sites {
					fmt.Fprintf(&sb, "%d/%d %s %v\n", round, i, s, idsOf(m.read(s)))
					fmt.Fprintf(&sb, "%d/%d %s %v\n", round, i, s, idsOf(m.read(s)))
				}
			}
			sim.Sleep(30 * time.Second) // quiesce through retries
			for _, s := range sites {
				fmt.Fprintf(&sb, "%d/end %s %v\n", round, s, idsOf(m.read(s)))
			}
			m.reset()
		}
	})
	sim.Wait()
	return sb.String()
}

// TestArrivalTimelineIdenticalAcrossShardCounts pins the lock-striping
// determinism guarantee: the observable replica timelines — including
// mid-propagation arrival order, partition retries and Reset epochs —
// match the reference at every probe, and so each other, whether the
// replica is striped into 1, 4 or 16 shards.
func TestArrivalTimelineIdenticalAcrossShardCounts(t *testing.T) {
	cfg := Config{
		Mode:              Eventual,
		Sites:             []simnet.Site{simnet.DCWest, simnet.DCEast, simnet.DCAsia, simnet.DCEurope},
		Order:             OrderArrival,
		LocalApplyDelay:   20 * time.Millisecond,
		LocalApplyJitter:  80 * time.Millisecond,
		PropagationBase:   100 * time.Millisecond,
		PropagationJitter: 400 * time.Millisecond,
		RetryInterval:     200 * time.Millisecond,
	}
	var ref string
	for _, shards := range []int{1, 4, 16} {
		cfg.Shards = shards
		got := runScenario(t, cfg, 5)
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Errorf("shards=%d transcript differs from shards=1", shards)
		}
	}
}

// TestTimerWheelMatchesReference pins the delivery scheduler: the
// cluster-wide timer wheel applies every pending entry at exactly the
// instant the reference computes from its due time, the partition
// schedule, RetryInterval and Resets.
func TestTimerWheelMatchesReference(t *testing.T) {
	for _, order := range []OrderKind{OrderArrival, OrderHybrid} {
		runScenario(t, Config{
			Mode:              Eventual,
			Sites:             []simnet.Site{simnet.DCWest, simnet.DCEast, simnet.DCAsia},
			Order:             order,
			NormalizeAfter:    time.Second,
			LocalApplyDelay:   20 * time.Millisecond,
			LocalApplyJitter:  60 * time.Millisecond,
			PropagationBase:   80 * time.Millisecond,
			PropagationJitter: 300 * time.Millisecond,
			RetryInterval:     200 * time.Millisecond,
			Shards:            4,
		}, 31)
	}
}

// TestReadCacheMatchesUncached pins the generation-invalidated timeline
// cache: it never serves stale or reordered data, so every read —
// back-to-back cache hits included — equals the reference's uncached
// full sort.
func TestReadCacheMatchesUncached(t *testing.T) {
	runScenario(t, Config{
		Mode:              Eventual,
		Sites:             []simnet.Site{simnet.DCWest, simnet.DCEurope, simnet.DCAsia},
		Order:             OrderHybrid,
		NormalizeAfter:    time.Second,
		PropagationBase:   50 * time.Millisecond,
		PropagationJitter: 200 * time.Millisecond,
		Shards:            4,
	}, 9)
}

// TestCutoffCacheMatchesUncached pins the OrderHybrid read cache keyed
// by the normalize cutoff: serving the memoized partition+sort result
// is indistinguishable from the reference's re-partitioning on every
// read, across cutoff movement, fresh suffix growth and cache
// invalidation.
func TestCutoffCacheMatchesUncached(t *testing.T) {
	runScenario(t, Config{
		Mode:              Eventual,
		Sites:             []simnet.Site{simnet.DCWest, simnet.DCEast, simnet.DCAsia},
		Order:             OrderHybrid,
		NormalizeAfter:    time.Second,
		PropagationBase:   50 * time.Millisecond,
		PropagationJitter: 250 * time.Millisecond,
		RetryInterval:     200 * time.Millisecond,
		Shards:            4,
	}, 13)
}
