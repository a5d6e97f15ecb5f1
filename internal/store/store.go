// Package store implements the geo-replicated log substrate underlying
// the simulated online services.
//
// A Cluster is a set of per-data-center replicas of an append-only log of
// posts. Two replication modes are provided:
//
//   - Strong: writes are applied synchronously at every replica before
//     the write returns, yielding the anomaly-free behavior the paper
//     observed on Blogger.
//   - Eventual: a write is applied at the replica of the contacted data
//     center and propagated asynchronously to the others after a
//     network-derived delay, yielding the divergence behaviors observed
//     on Google+ and the Facebook services.
//
// Each replica orders its log by creation timestamp under a configurable
// TimestampPolicy. Truncating timestamps to one-second precision with
// reversed tie-breaking reproduces the deterministic same-second
// reordering the paper discovered in Facebook Group (Section V,
// "monotonic writes").
//
// # Concurrency
//
// Replica state is lock-striped into Config.Shards shards per replica,
// keyed by entry ID, so writes and deliveries for different keys proceed
// in parallel. Replication is batched per (destination site, shard):
// each shard keeps a min-heap of pending deliveries ordered by
// (due time, schedule order), and one cluster-wide timer wheel drains
// every due shard from a single timer event (wheel.go). Reads merge the
// shards' new entries into a cached timeline — policy-sorted for
// OrderTimestamp, otherwise an arrival-order timeline sorted by (apply
// time, ArrivalSeq), the same order the pre-shard store produced by
// appending under one lock — and reuse it until any shard's generation
// counter moves. Published timelines are immutable up to their length,
// so View shares them without copying and Read copies them. The
// reference these fast paths must match, apply instants computed
// directly and every read fully sorted, lives in reference_test.go.
package store

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"conprobe/internal/detrand"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// DefaultShards is the per-replica lock stripe count used when
// Config.Shards is unset.
const DefaultShards = 8

// Entry is one stored post.
type Entry struct {
	// ID is the caller-assigned unique identifier of the post.
	ID string
	// Author is the writing agent's label.
	Author string
	// Body is the post content.
	Body string
	// DependsOn optionally names a causally preceding entry (opaque to
	// the store; carried for clients).
	DependsOn string
	// Origin is the data center that accepted the write.
	Origin simnet.Site
	// CreatedAt is the server-side creation stamp, already truncated to
	// the cluster's timestamp precision.
	CreatedAt time.Time
	// ArrivalSeq is the cluster-wide acceptance order, used to break
	// CreatedAt ties.
	ArrivalSeq uint64

	// epoch is the Reset generation the entry belongs to; deliveries from
	// earlier generations are dropped.
	epoch uint64
}

// Mode selects the replication protocol.
type Mode int

// Replication modes.
const (
	// Strong applies writes synchronously at every replica.
	Strong Mode = iota + 1
	// Eventual applies writes at the contacted replica and propagates
	// asynchronously.
	Eventual
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Strong:
		return "strong"
	case Eventual:
		return "eventual"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// TimestampPolicy controls creation-stamp assignment and log ordering.
type TimestampPolicy struct {
	// Precision truncates creation stamps (0 keeps full resolution).
	// Facebook Group tags events at one-second precision.
	Precision time.Duration
	// ReverseTies orders entries with equal (truncated) stamps by
	// descending arrival order — the deterministic tie-break the paper
	// inferred for Facebook Group.
	ReverseTies bool
}

// OrderKind selects how a replica orders its log when read.
type OrderKind int

// Read-time orderings.
const (
	// OrderTimestamp sorts the whole log by creation stamp (the default).
	OrderTimestamp OrderKind = iota + 1
	// OrderArrival presents entries in local arrival order; replicas that
	// received concurrent writes in different orders stay divergent.
	OrderArrival
	// OrderHybrid presents entries older than NormalizeAfter in timestamp
	// order and newer entries in local arrival order, modeling feed
	// pipelines that append first and re-rank in the background. Order
	// divergence is transient and heals after roughly NormalizeAfter.
	OrderHybrid
)

// String names the ordering.
func (k OrderKind) String() string {
	switch k {
	case OrderTimestamp:
		return "timestamp"
	case OrderArrival:
		return "arrival"
	case OrderHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("order(%d)", int(k))
	}
}

// less orders entries under the policy.
func (p TimestampPolicy) less(a, b Entry) bool { return p.compare(a, b) < 0 }

// compare is the three-way form of less.
func (p TimestampPolicy) compare(a, b Entry) int {
	if c := a.CreatedAt.Compare(b.CreatedAt); c != 0 {
		return c
	}
	if p.ReverseTies {
		return cmp.Compare(b.ArrivalSeq, a.ArrivalSeq)
	}
	return cmp.Compare(a.ArrivalSeq, b.ArrivalSeq)
}

// Config parameterizes a Cluster.
type Config struct {
	// Mode is the replication protocol. Required.
	Mode Mode
	// Sites are the data centers hosting replicas. Required, non-empty.
	Sites []simnet.Site
	// Primary is the write leader; defaults to Sites[0]. Only strong
	// mode routes every write through the primary.
	Primary simnet.Site
	// Policy is the timestamp policy.
	Policy TimestampPolicy
	// Order is the read-time ordering (default OrderTimestamp).
	Order OrderKind
	// NormalizeAfter is the age beyond which OrderHybrid entries are
	// presented in timestamp order (default 3s).
	NormalizeAfter time.Duration
	// HybridEpochProb is, under OrderHybrid, the probability that an
	// epoch actually surfaces fresh entries in arrival order; in the
	// remaining epochs the ranking pipeline keeps up and reads are in
	// timestamp order throughout (default 1). Lowering it makes order
	// divergence rare but long-lived, as the paper observed on Google+.
	HybridEpochProb float64
	// LocalApplyDelay postpones visibility of a write at every replica
	// (eventual mode only) on top of propagation, modeling asynchronous
	// feed indexing: the write is acknowledged immediately but appears
	// in reads only after the indexing delay, even at its own origin.
	// This is the mechanism behind the pervasive read-your-writes
	// violations on Facebook Feed.
	LocalApplyDelay time.Duration
	// LocalApplyJitter adds uniform extra local visibility delay in
	// [0, J).
	LocalApplyJitter time.Duration
	// PropagationFactor scales the inter-DC one-way delay when
	// scheduling eventual propagation (default 1).
	PropagationFactor float64
	// PropagationBase is a fixed extra delay applied to eventual
	// propagation (models batching/queuing inside the provider).
	PropagationBase time.Duration
	// PropagationJitter adds uniform extra delay in [0, J) independently
	// per entry per link; it is the source of rare same-origin reordering
	// during replication.
	PropagationJitter time.Duration
	// EpochJitter adds a per-epoch replication lag sampled uniformly in
	// [0, E) at creation and at every Reset, shared by all propagations
	// of the epoch. It models slowly varying backlog in the provider's
	// replication pipeline and spreads divergence windows across tests
	// without reordering writes within a test.
	EpochJitter time.Duration
	// FastEpochProb is the probability that an epoch runs with no
	// replication backlog at all: epoch lag, base delay and per-entry
	// jitter are skipped, leaving only the network one-way delay. It
	// models the fraction of tests in which the provider's pipeline was
	// keeping up and no divergence was observable.
	FastEpochProb float64
	// RetryInterval is how long a propagation blocked by a partition
	// waits before retrying (default 1s).
	RetryInterval time.Duration
	// Shards is the per-replica lock stripe count (default
	// DefaultShards). Campaign output is independent of the shard count;
	// it only tunes contention under parallel load.
	Shards int
	// Durable, when non-nil, makes the cluster crash-safe: accepted
	// writes are fsynced to a per-shard WAL before WriteEntry returns,
	// resets are journaled, and NewCluster replays snapshot+WAL from
	// Durable.Dir. See Durable for the recovery semantics.
	Durable *Durable
}

// Cluster is a replicated log spanning several data centers.
type Cluster struct {
	clock vtime.Clock
	net   *simnet.Network
	cfg   Config

	seed int64

	seq      atomic.Uint64 // cluster-wide acceptance order (ArrivalSeq)
	schedSeq atomic.Uint64 // delivery schedule order, tie-break in pending heaps
	epoch    atomic.Uint64
	epochLag atomic.Int64 // ns; negative sentinel marks a fast epoch
	hybridOn atomic.Bool  // whether the epoch surfaces arrival order under OrderHybrid

	// resetMu serializes Reset (epoch bump + per-epoch resampling); the
	// hot paths never take it.
	resetMu sync.Mutex

	replicas map[simnet.Site]*replica

	// wheel is the cluster-wide delivery timer wheel (see wheel.go).
	wheel timerWheel

	// durable is non-nil when Config.Durable requested persistence.
	durable *durableState
}

// replica is the per-DC log, striped into shards by entry ID.
type replica struct {
	site   simnet.Site
	shards []*shard
	cache  timelineCache
}

// shard holds one lock stripe of a replica: its slice of the applied
// log, the apply-time index, and the pending-delivery queue the timer
// wheel drains in batches.
type shard struct {
	mu sync.Mutex
	// gen counts applied mutations (applies and resets); the timeline
	// cache snapshots it to detect staleness without locking.
	gen       atomic.Uint64
	recs      []appliedEntry
	appliedAt map[string]time.Time
	pending   deliveryQueue
	// wheelAt is the due time of the shard's live registration in the
	// cluster timer wheel (zero when unregistered). Guarded by the
	// wheel's mutex, not sh.mu.
	wheelAt time.Time
}

// appliedEntry pairs an entry with the time its replica applied it; the
// merged arrival timeline sorts by (at, ArrivalSeq).
type appliedEntry struct {
	e  Entry
	at time.Time
}

// pendingDelivery is one queued replication delivery.
type pendingDelivery struct {
	src simnet.Site
	e   Entry
}

// deliveryQueue is a min-heap of pending deliveries by (due time,
// schedule order).
type deliveryQueue = dueHeap[pendingDelivery]

// timelineCache memoizes the rendered read timelines of one replica,
// keyed by a snapshot of the shard generation counters. Refreshes are
// incremental: offsets records how much of each shard's log the cached
// timelines already cover, so a refresh only merges the new tail
// entries instead of re-sorting the whole replica. Published slices
// (merged, sorted, hybrid) are immutable up to their length — a refresh
// appends past a published length or builds a replacement, and a Reset
// drops them — so readers share them without copying (View) or copy
// them outside the cache lock (Read).
type timelineCache struct {
	mu      sync.Mutex
	gens    []uint64
	offsets []int
	// merged is the (applyTime, ArrivalSeq) arrival order. Only
	// OrderArrival and OrderHybrid read it, so an OrderTimestamp replica
	// leaves it nil.
	merged []appliedEntry
	// sorted is the timeline under the timestamp policy. An
	// OrderTimestamp replica keeps it current on every refresh; the
	// other orders build it lazily from merged.
	sorted []Entry
	// hybrid memoizes the rendered OrderHybrid timeline for one
	// normalize cutoff (hybridCutoff); consecutive reads at the same
	// virtual instant — the common case under the discrete-event clock —
	// hit it without re-partitioning. Invalidated whenever merged
	// changes.
	hybridCutoff time.Time
	hybrid       []Entry
	// batch and add are refresh scratch: the new tail in arrival order
	// and as policy-sorted entries. Never published.
	batch []appliedEntry
	add   []Entry
}

// NewCluster builds a Cluster over the given network.
func NewCluster(clock vtime.Clock, net *simnet.Network, cfg Config, seed int64) (*Cluster, error) {
	if cfg.Mode != Strong && cfg.Mode != Eventual {
		return nil, fmt.Errorf("store: invalid mode %v", cfg.Mode)
	}
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("store: no replica sites")
	}
	if cfg.Primary == "" {
		cfg.Primary = cfg.Sites[0]
	}
	found := false
	for _, s := range cfg.Sites {
		if s == cfg.Primary {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("store: primary %s not among sites %v", cfg.Primary, cfg.Sites)
	}
	if cfg.PropagationFactor <= 0 {
		cfg.PropagationFactor = 1
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = time.Second
	}
	if cfg.Order == 0 {
		cfg.Order = OrderTimestamp
	}
	if cfg.Order != OrderTimestamp && cfg.Order != OrderArrival && cfg.Order != OrderHybrid {
		return nil, fmt.Errorf("store: invalid order %v", cfg.Order)
	}
	if cfg.NormalizeAfter <= 0 {
		cfg.NormalizeAfter = 3 * time.Second
	}
	if cfg.HybridEpochProb == 0 {
		cfg.HybridEpochProb = 1
	}
	if cfg.Shards < 1 {
		cfg.Shards = DefaultShards
	}
	c := &Cluster{
		clock:    clock,
		net:      net,
		cfg:      cfg,
		seed:     seed,
		replicas: make(map[simnet.Site]*replica, len(cfg.Sites)),
	}
	for _, s := range cfg.Sites {
		c.replicas[s] = newReplica(s, cfg.Shards)
	}
	c.epochLag.Store(int64(c.sampleEpochLag(0)))
	c.hybridOn.Store(c.sampleEpochHybrid(0))
	if cfg.Durable != nil {
		if err := c.openDurable(*cfg.Durable); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// sampleEpochHybrid decides whether the given epoch surfaces arrival
// order under OrderHybrid.
func (c *Cluster) sampleEpochHybrid(epoch uint64) bool {
	return detrand.NewKey(c.seed, "epoch").Uint(epoch).Str("hybrid").Float64() < c.cfg.HybridEpochProb
}

func newReplica(site simnet.Site, shards int) *replica {
	r := &replica{site: site, shards: make([]*shard, shards)}
	for i := range r.shards {
		r.shards[i] = &shard{appliedAt: make(map[string]time.Time)}
	}
	return r
}

// shard maps an entry ID onto the replica's stripe for it.
func (r *replica) shard(id string) *shard {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	return r.shards[h.Sum32()%uint32(len(r.shards))]
}

// sampleEpochLag draws the epoch's shared replication lag; a negative
// sentinel marks a fast (backlog-free) epoch. Draws are keyed by the
// epoch number, so they are deterministic for a given seed.
func (c *Cluster) sampleEpochLag(epoch uint64) time.Duration {
	k := detrand.NewKey(c.seed, "epoch").Uint(epoch)
	if c.cfg.FastEpochProb > 0 && k.Str("fast").Float64() < c.cfg.FastEpochProb {
		return -1
	}
	if c.cfg.EpochJitter <= 0 {
		return 0
	}
	return time.Duration(k.Str("lag").Intn(int64(c.cfg.EpochJitter)))
}

// Sites returns the replica sites.
func (c *Cluster) Sites() []simnet.Site {
	out := make([]simnet.Site, len(c.cfg.Sites))
	copy(out, c.cfg.Sites)
	return out
}

// Primary returns the write leader site.
func (c *Cluster) Primary() simnet.Site { return c.cfg.Primary }

// Mode returns the replication mode.
func (c *Cluster) Mode() Mode { return c.cfg.Mode }

// Shards returns the per-replica lock stripe count.
func (c *Cluster) Shards() int { return c.cfg.Shards }

// Write accepts a post at the replica of site dc and returns the stored
// entry. Strong mode applies the write at every replica before returning;
// eventual mode schedules asynchronous propagation.
func (c *Cluster) Write(dc simnet.Site, id, author, body string) (Entry, error) {
	return c.WriteEntry(dc, Entry{ID: id, Author: author, Body: body})
}

// WriteEntry is Write with the full entry payload (dependency metadata).
func (c *Cluster) WriteEntry(dc simnet.Site, in Entry) (Entry, error) {
	origin, ok := c.replicas[dc]
	if !ok {
		return Entry{}, fmt.Errorf("store: no replica at %s", dc)
	}
	now := c.clock.Now()
	created := now
	if p := c.cfg.Policy.Precision; p > 0 {
		created = created.Truncate(p)
	}
	e := Entry{
		ID:         in.ID,
		Author:     in.Author,
		Body:       in.Body,
		DependsOn:  in.DependsOn,
		Origin:     dc,
		CreatedAt:  created,
		ArrivalSeq: c.seq.Add(1),
		epoch:      c.epoch.Load(),
	}
	if c.durable != nil {
		// Ack-after-fsync: the write is journaled (and synced) before it
		// becomes visible or is acknowledged, so a crash at any later
		// point cannot lose it.
		if err := c.durable.logWrite(e); err != nil {
			return Entry{}, err
		}
	}

	switch c.cfg.Mode {
	case Strong:
		for _, s := range c.cfg.Sites {
			c.apply(c.replicas[s], e, now)
		}
	case Eventual:
		if d := c.localDelay(e.ID, dc); d > 0 {
			c.enqueue(origin, dc, e, now.Add(d))
		} else {
			c.apply(origin, e, now)
		}
		for _, s := range c.cfg.Sites {
			if s == dc {
				continue
			}
			c.enqueue(c.replicas[s], dc, e, now.Add(c.propagationDelay(dc, s, e.ID)))
		}
	}
	return e, nil
}

// localDelay samples the visibility (indexing) delay for one entry at
// one replica, keyed so the draw is deterministic per (seed, entry,
// site).
func (c *Cluster) localDelay(id string, dst simnet.Site) time.Duration {
	d := c.cfg.LocalApplyDelay
	if j := c.cfg.LocalApplyJitter; j > 0 {
		k := detrand.NewKey(c.seed, "apply").Str(id).Str(string(dst))
		d += time.Duration(k.Intn(int64(j)))
	}
	return d
}

// propagationDelay is the time from entry id's write at src until its
// delivery falls due at replica dst: the network one-way delay, plus (in
// backlogged epochs) the replication pipeline delays, plus the
// destination's indexing delay.
func (c *Cluster) propagationDelay(src, dst simnet.Site, id string) time.Duration {
	k := detrand.NewKey(c.seed, "prop").Str(id).Str(string(dst))
	oneWay, err := c.net.OneWayU(src, dst, k.Str("net").Float64())
	if err != nil {
		// Unknown link: treat as a long but finite delay so entries
		// eventually converge rather than silently vanishing.
		oneWay = time.Second
	}
	delay := time.Duration(float64(oneWay)*c.cfg.PropagationFactor) + c.localDelay(id, dst)
	if lag := time.Duration(c.epochLag.Load()); lag >= 0 {
		delay += c.cfg.PropagationBase + lag
		if j := c.cfg.PropagationJitter; j > 0 {
			delay += time.Duration(k.Str("jitter").Intn(int64(j)))
		}
	}
	return delay
}

// enqueue adds a delivery due at `at` to the destination shard's pending
// heap and registers its head with the timer wheel.
func (c *Cluster) enqueue(r *replica, src simnet.Site, e Entry, at time.Time) {
	sh := r.shard(e.ID)
	sh.mu.Lock()
	sh.pending.push(due[pendingDelivery]{at: at, seq: c.schedSeq.Add(1), v: pendingDelivery{src: src, e: e}})
	c.wheelSchedule(r, sh, sh.pending[0].at)
	sh.mu.Unlock()
}

// apply records e at the shard owning its ID.
func (c *Cluster) apply(r *replica, e Entry, now time.Time) {
	sh := r.shard(e.ID)
	sh.mu.Lock()
	c.applyLocked(sh, e, now)
	sh.mu.Unlock()
}

// applyLocked appends e to the shard's log slice if not already present.
// The epoch re-check happens here, under sh.mu: Reset bumps the epoch
// before clearing each shard under its lock, so an entry from before a
// Reset that reaches the shard after it was cleared observes the new
// epoch and is dropped instead of leaking into the new generation.
// Caller holds sh.mu.
func (c *Cluster) applyLocked(sh *shard, e Entry, now time.Time) {
	if e.epoch != c.epoch.Load() {
		return // stale entry from before a Reset
	}
	if _, dup := sh.appliedAt[e.ID]; dup {
		return
	}
	sh.appliedAt[e.ID] = now
	sh.recs = append(sh.recs, appliedEntry{e: e, at: now})
	sh.gen.Add(1)
}

// AppliedAt reports when dc's replica applied the entry with the given
// id, for white-box ground-truth analysis. ok is false if the entry has
// not (yet) been applied there.
func (c *Cluster) AppliedAt(dc simnet.Site, id string) (at time.Time, ok bool) {
	r, found := c.replicas[dc]
	if !found {
		return time.Time{}, false
	}
	sh := r.shard(id)
	sh.mu.Lock()
	at, ok = sh.appliedAt[id]
	sh.mu.Unlock()
	return at, ok
}

// gensCurrent reports whether a cached generation snapshot still matches
// the shards' live counters.
func (r *replica) gensCurrent(gens []uint64) bool {
	for i, sh := range r.shards {
		if sh.gen.Load() != gens[i] {
			return false
		}
	}
	return true
}

// sortApplied orders records by (apply time, ArrivalSeq) — the merged
// arrival order, matching the append-under-one-lock order of the
// pre-shard store. ArrivalSeq is unique per entry and a replica applies
// an entry once, so the order is total and an unstable sort is exact.
func sortApplied(recs []appliedEntry) {
	slices.SortFunc(recs, func(a, b appliedEntry) int {
		if c := a.at.Compare(b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.e.ArrivalSeq, b.e.ArrivalSeq)
	})
}

// refreshLocked brings the cached timelines up to date. It collects only
// the entries each shard applied since the last refresh (per-shard
// offsets) and splices them into the cached timeline: the policy-sorted
// one when arrival is false (OrderTimestamp), the merged arrival order
// otherwise. Apply stamps are non-decreasing and new writes carry the
// newest creation stamps, so the splice point is almost always the very
// end. A Reset (shard log shrank) falls back to a full rebuild. Caller
// holds r.cache.mu.
func (r *replica) refreshLocked(p TimestampPolicy, arrival bool) {
	cc := &r.cache
	n := len(r.shards)
	full := len(cc.gens) == 0
	for _, sh := range r.shards {
		sh.mu.Lock()
	}
	for i, sh := range r.shards {
		if !full && cc.offsets[i] > len(sh.recs) {
			full = true
		}
	}
	batch, add := cc.batch[:0], cc.add[:0]
	for i, sh := range r.shards {
		recs := sh.recs
		if !full {
			recs = recs[cc.offsets[i]:]
		}
		if arrival {
			batch = append(batch, recs...)
			continue
		}
		for _, rec := range recs {
			add = append(add, rec.e)
		}
	}
	// Snapshot the generations and offsets into the cache's own slices,
	// which a Reset truncates rather than drops.
	cc.gens, cc.offsets = cc.gens[:0], cc.offsets[:0]
	for _, sh := range r.shards {
		cc.gens = append(cc.gens, sh.gen.Load())
		cc.offsets = append(cc.offsets, len(sh.recs))
	}
	for i := n - 1; i >= 0; i-- {
		r.shards[i].mu.Unlock()
	}
	if arrival {
		add = cc.refreshMerged(batch, add, full, p)
	} else {
		slices.SortStableFunc(add, p.compare)
		if full {
			cc.sorted = append([]Entry(nil), add...)
		} else {
			cc.sorted = appendPolicySorted(cc.sorted, add, p)
		}
	}
	cc.batch, cc.add = batch, add
	cc.hybrid = nil // rendered against the previous timeline
}

// refreshMerged splices the new tail batch into the merged arrival
// timeline and, when it is already built, the policy-sorted one. add is
// scratch for the latter; the grown buffer is returned. Caller holds
// cc.mu.
func (cc *timelineCache) refreshMerged(batch []appliedEntry, add []Entry, full bool, p TimestampPolicy) []Entry {
	sortApplied(batch)
	if full || len(cc.merged) == 0 {
		cc.merged = append([]appliedEntry(nil), batch...)
		cc.sorted = nil
		return add
	}
	if len(batch) == 0 {
		return add
	}
	// The policy-sorted rendering is a pure set sort, so only the new
	// entries need merging into it.
	if cc.sorted != nil {
		for _, rec := range batch {
			add = append(add, rec.e)
		}
		slices.SortStableFunc(add, p.compare)
		cc.sorted = appendPolicySorted(cc.sorted, add, p)
	}
	// Entries already cached with an apply stamp at or after the batch's
	// earliest must be re-ordered together with it; under a monotone
	// clock that is only the equal-stamp boundary.
	cut := len(cc.merged)
	for cut > 0 && !cc.merged[cut-1].at.Before(batch[0].at) {
		cut--
	}
	if cut == len(cc.merged) {
		cc.merged = append(cc.merged, batch...)
	} else {
		tail := make([]appliedEntry, 0, len(cc.merged)-cut+len(batch))
		tail = append(tail, cc.merged[cut:]...)
		tail = append(tail, batch...)
		sortApplied(tail)
		cc.merged = append(cc.merged[:cut:cut], tail...)
	}
	return add
}

// appendPolicySorted adds the policy-sorted entries add to the
// policy-sorted timeline sorted. When add sorts after the whole
// timeline it appends in place: a published slice's readers only cover
// [0:len), so writing past it is safe. Otherwise it merges the two into
// a new slice and leaves sorted untouched.
func appendPolicySorted(sorted, add []Entry, p TimestampPolicy) []Entry {
	if len(add) == 0 {
		return sorted
	}
	if n := len(sorted); n == 0 || !p.less(add[0], sorted[n-1]) {
		return append(sorted, add...)
	}
	out := make([]Entry, 0, len(sorted)+len(add))
	i, j := 0, 0
	for i < len(sorted) && j < len(add) {
		if p.less(add[j], sorted[i]) {
			out = append(out, add[j])
			j++
		} else {
			out = append(out, sorted[i])
			i++
		}
	}
	out = append(out, sorted[i:]...)
	return append(out, add[j:]...)
}

// sortedLocked returns the policy-sorted timeline, building it from the
// merged one on first use when the replica keeps arrival order. Caller
// holds r.cache.mu and has refreshed the cache.
func (r *replica) sortedLocked(p TimestampPolicy) []Entry {
	cc := &r.cache
	if cc.sorted == nil && cc.merged != nil {
		cc.sorted = make([]Entry, len(cc.merged))
		for i, rec := range cc.merged {
			cc.sorted[i] = rec.e
		}
		slices.SortStableFunc(cc.sorted, p.compare)
	}
	return cc.sorted
}

// timeline returns dc's log in the cluster's read-time order, as a
// published cache timeline the caller must not modify (OrderArrival
// renders a fresh slice from the merged timeline).
func (c *Cluster) timeline(dc simnet.Site) ([]Entry, error) {
	r, ok := c.replicas[dc]
	if !ok {
		return nil, fmt.Errorf("store: no replica at %s", dc)
	}
	order := c.cfg.Order
	if order == OrderHybrid && !c.hybridOn.Load() {
		order = OrderTimestamp
	}
	cc := &r.cache
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if len(cc.gens) == 0 || !r.gensCurrent(cc.gens) {
		r.refreshLocked(c.cfg.Policy, c.cfg.Order != OrderTimestamp)
	}
	switch order {
	case OrderArrival:
		out := make([]Entry, len(cc.merged))
		for i, rec := range cc.merged {
			out[i] = rec.e
		}
		return out, nil
	case OrderTimestamp:
		return r.sortedLocked(c.cfg.Policy), nil
	default: // OrderHybrid
		return r.hybridLocked(c, c.clock.Now().Add(-c.cfg.NormalizeAfter)), nil
	}
}

// Read returns a copy of dc's log in the cluster's read-time order.
func (c *Cluster) Read(dc simnet.Site) ([]Entry, error) {
	entries, err := c.timeline(dc)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, len(entries))
	copy(out, entries)
	return out, nil
}

// View is Read without the copy: it returns dc's log in read-time order
// as a slice shared with the store and with every other reader of the
// same timeline. Callers must treat it as read-only — never modify its
// elements or append to it. A view stays valid, and reads the same,
// across later writes, deliveries and Resets: the store never changes a
// published timeline, it appends past its length or builds a new one.
// Reads at one replica between two applies return the same view.
func (c *Cluster) View(dc simnet.Site) ([]Entry, error) {
	entries, err := c.timeline(dc)
	return entries[:len(entries):len(entries)], err
}

// hybridLocked renders the OrderHybrid timeline through the cutoff-
// keyed cache: entries created before the cutoff in policy order, the
// rest in arrival order. Instead of re-partitioning and re-sorting the
// whole timeline per read, it exploits two invariants:
//
//   - The policy compares CreatedAt first and the cutoff partitions by
//     CreatedAt, so no policy-equal pair straddles the cutoff and the
//     normalized partition is exactly a prefix of the cached
//     policy-sorted timeline (both stable over the same arrival order).
//   - CreatedAt never exceeds the apply stamp, so only the merged
//     suffix with apply stamps at or after the cutoff can hold fresh
//     entries — found by binary search, scanned in arrival order.
//
// The rendered slice is memoized per (generation snapshot, cutoff);
// under the discrete-event clock many consecutive reads share a virtual
// instant and hit it outright. Caller holds r.cache.mu and has
// refreshed the cache.
func (r *replica) hybridLocked(c *Cluster, cutoff time.Time) []Entry {
	cc := &r.cache
	if cc.hybrid == nil || !cc.hybridCutoff.Equal(cutoff) {
		sorted := r.sortedLocked(c.cfg.Policy)
		merged := cc.merged
		i := sort.Search(len(merged), func(i int) bool { return !merged[i].at.Before(cutoff) })
		fresh := 0
		for _, rec := range merged[i:] {
			if !rec.e.CreatedAt.Before(cutoff) {
				fresh++
			}
		}
		out := make([]Entry, 0, len(merged))
		out = append(out, sorted[:len(merged)-fresh]...)
		for _, rec := range merged[i:] {
			if !rec.e.CreatedAt.Before(cutoff) {
				out = append(out, rec.e)
			}
		}
		cc.hybrid = out
		cc.hybridCutoff = cutoff
	}
	return cc.hybrid
}

// Len returns the number of entries at dc's replica.
func (c *Cluster) Len(dc simnet.Site) int {
	r, ok := c.replicas[dc]
	if !ok {
		return 0
	}
	n := 0
	for _, sh := range r.shards {
		sh.mu.Lock()
		n += len(sh.recs)
		sh.mu.Unlock()
	}
	return n
}

// Reset clears every replica and starts a new epoch: propagations still
// in flight from before the Reset are dropped and their pending queues
// emptied.
func (c *Cluster) Reset() {
	c.resetMu.Lock()
	defer c.resetMu.Unlock()
	c.resetTo(c.epoch.Load() + 1)
}

// BeginEpoch jumps the cluster to epoch base if it is ahead of the
// current epoch, clearing all replicas exactly like Reset. Campaigns
// call it at the start of each test with a base derived from the
// TestID so the epoch counter — and the per-epoch behaviour draws
// keyed by it — is a pure function of the test being run rather than
// of how many Resets happened before it. That makes a resumed
// campaign's epoch sequence identical to an uninterrupted one. Bases
// must leave headroom between tests (callers stride them) because
// each ordinary Reset still advances the epoch by one.
func (c *Cluster) BeginEpoch(base uint64) {
	c.resetMu.Lock()
	defer c.resetMu.Unlock()
	if base <= c.epoch.Load() {
		return
	}
	c.resetTo(base)
}

// resetTo clears every replica and installs epoch. Caller holds resetMu.
func (c *Cluster) resetTo(epoch uint64) {
	if c.durable != nil {
		c.durable.logReset(epoch)
	}
	c.epoch.Store(epoch)
	c.epochLag.Store(int64(c.sampleEpochLag(epoch)))
	c.hybridOn.Store(c.sampleEpochHybrid(epoch))
	for _, site := range c.cfg.Sites {
		r := c.replicas[site]
		for _, sh := range r.shards {
			sh.mu.Lock()
			// The shard log and queue are never published, so their
			// backing arrays are kept, cleared, for the next epoch.
			clear(sh.recs)
			sh.recs = sh.recs[:0]
			clear(sh.appliedAt)
			sh.pending.reset()
			c.wheelUnregister(sh)
			sh.gen.Add(1)
			sh.mu.Unlock()
		}
		// Drop the cached timelines outright. The incremental refresh
		// detects a Reset by a shard log shrinking below its cached
		// offset, which misses the case where the shard has already
		// re-grown past that offset by the next Read; forcing a full
		// rebuild here closes that window. (No shard lock is held, so
		// this cannot invert the cache.mu -> sh.mu order used by reads.)
		r.cache.mu.Lock()
		r.cache.gens = r.cache.gens[:0]
		r.cache.offsets = r.cache.offsets[:0]
		r.cache.merged = nil
		r.cache.sorted = nil
		r.cache.hybrid = nil
		r.cache.hybridCutoff = time.Time{}
		r.cache.mu.Unlock()
	}
}
