package store

import (
	"sync"
	"time"

	"conprobe/internal/vtime"
)

// timerWheel coalesces every shard's pending-delivery deadline into one
// cluster-wide schedule backed by a single clock timer. One timer per
// (site, shard) would cost one timer event — and, under vtime, one
// transient goroutine — per head movement; the wheel arms exactly one
// timer at the globally earliest due time and drains every due shard
// from that one event, in deterministic (due time, registration order).
//
// Registrations are lazy: a shard that re-registers at an earlier time
// simply pushes a second heap entry and the superseded one is discarded
// when popped (its time no longer matches the shard's live registration
// in shard.wheelAt). Firing therefore applies each delivery at exactly
// its due instant — the wheel changes how many timer events exist,
// never when a delivery lands. reference_test.go computes those
// instants without the wheel and checks the store against them.
type timerWheel struct {
	mu    sync.Mutex
	queue dueHeap[wheelEntry] // registrations by (due time, registration order)
	seq   uint64

	timer    vtime.Timer
	armedAt  time.Time
	armedGen uint64
	// firing suppresses re-arming by concurrent registrations while a
	// fire is draining shards; the fire re-arms once at the end.
	firing bool
	// drain is the fire's scratch list of shards to drain; firing
	// serializes its use.
	drain []wheelEntry
}

// wheelEntry is the shard a registration drains.
type wheelEntry struct {
	r  *replica
	sh *shard
}

// wheelSchedule registers sh for a drain at `at` (the head of its
// pending heap). A live registration at or before `at` already covers
// it; a later one is superseded. Callers may hold sh.mu — the lock
// order is always sh.mu before wheel.mu, never the reverse.
func (c *Cluster) wheelSchedule(r *replica, sh *shard, at time.Time) {
	w := &c.wheel
	w.mu.Lock()
	if !sh.wheelAt.IsZero() && !sh.wheelAt.After(at) {
		w.mu.Unlock()
		return
	}
	sh.wheelAt = at
	w.seq++
	w.queue.push(due[wheelEntry]{at: at, seq: w.seq, v: wheelEntry{r: r, sh: sh}})
	if !w.firing && (w.timer == nil || at.Before(w.armedAt)) {
		c.armWheelLocked(at)
	}
	w.mu.Unlock()
}

// wheelUnregister drops sh's live registration (on Reset). Its heap
// entries become stale and are discarded when popped.
func (c *Cluster) wheelUnregister(sh *shard) {
	w := &c.wheel
	w.mu.Lock()
	sh.wheelAt = time.Time{}
	w.mu.Unlock()
}

// armWheelLocked points the single wheel timer at `at`. Caller holds
// w.mu. The generation token invalidates a previously armed timer whose
// Stop raced its fire.
func (c *Cluster) armWheelLocked(at time.Time) {
	w := &c.wheel
	if w.timer != nil {
		w.timer.Stop()
	}
	w.armedAt = at
	w.armedGen++
	gen := w.armedGen
	w.timer = c.clock.AfterFunc(at.Sub(c.clock.Now()), func() { c.wheelFire(gen) })
}

// wheelFire drains every shard whose registration has come due, then
// re-arms at the next live registration. Due shards drain in (due time,
// registration order) — deterministic, and each delivery still applies
// at exactly its due instant.
func (c *Cluster) wheelFire(gen uint64) {
	w := &c.wheel
	w.mu.Lock()
	if gen != w.armedGen {
		w.mu.Unlock()
		return
	}
	w.timer = nil
	w.firing = true
	now := c.clock.Now()
	fire := w.drain[:0]
	for len(w.queue) > 0 && !w.queue[0].at.After(now) {
		ent := w.queue.pop()
		if ent.v.sh.wheelAt.Equal(ent.at) {
			ent.v.sh.wheelAt = time.Time{}
			fire = append(fire, ent.v)
		}
	}
	w.mu.Unlock()
	for _, ent := range fire {
		c.drainShard(ent.r, ent.sh)
	}
	w.mu.Lock()
	clear(fire)
	w.drain = fire
	w.firing = false
	for len(w.queue) > 0 && !w.queue[0].v.sh.wheelAt.Equal(w.queue[0].at) {
		w.queue.pop() // discard superseded registrations
	}
	if len(w.queue) > 0 {
		c.armWheelLocked(w.queue[0].at)
	}
	w.mu.Unlock()
}

// drainShard applies every pending delivery of one shard that has come
// due, in (due time, schedule order), then re-registers the shard for
// its next deadline. Deliveries blocked by a partition are re-queued one
// RetryInterval out; deliveries from before a Reset are dropped.
func (c *Cluster) drainShard(r *replica, sh *shard) {
	now := c.clock.Now()
	sh.mu.Lock()
	for len(sh.pending) > 0 && !sh.pending[0].at.After(now) {
		d := sh.pending.pop()
		if d.v.e.epoch != c.epoch.Load() {
			continue // stale delivery from before a Reset
		}
		if !c.net.Reachable(d.v.src, r.site) {
			d.at = now.Add(c.cfg.RetryInterval)
			sh.pending.push(d)
			continue
		}
		c.applyLocked(sh, d.v.e, now)
	}
	if len(sh.pending) > 0 {
		c.wheelSchedule(r, sh, sh.pending[0].at)
	}
	sh.mu.Unlock()
}
