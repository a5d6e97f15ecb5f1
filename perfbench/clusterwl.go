package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

const (
	// writeLimit is the p90 latency a ladder step must meet.
	writeLimit = 500 * time.Millisecond
	// lowRate is the ladder's first step, below today's capacity of
	// about 10-11 acked writes/s over two connections; highRate is well
	// above it. The ladder ends in a saturation step where both
	// connections send back to back.
	lowRate  = 8.0
	highRate = 16.0
	// mixedRate is cluster-mixed's fixed rate: about half the capacity
	// of two connections against the blogger state machine.
	mixedRate = 6.0
	// prepopulated is how many posts cluster-mixed writes before the
	// measurement, so reads return state.
	prepopulated = 4
	// setupRepeats is how many times a run boots its cluster; the
	// median is setup_s and the last boot is measured.
	setupRepeats = 3
	// drainLimit bounds how long operations may stay queued after the
	// last one fell due; later ones count as unsent.
	drainLimit = 10 * time.Second
	// maxGenLag is how late the generator may run (p90) before the run
	// is marked invalid.
	maxGenLag = 10 * time.Millisecond
)

func allWrites() string { return opWrite }

// setupCluster boots the cluster setupRepeats times (prepare runs after
// each boot and counts as set-up) and returns the last one with the
// median set-up time.
func setupCluster(c config, sm string, tr *tracer, prepare func(*testCluster) error) (*testCluster, float64, error) {
	var times []float64
	var cl *testCluster
	for i := 0; i < setupRepeats; i++ {
		dir, err := os.MkdirTemp(c.workDir, c.workload+"-")
		if err != nil {
			return nil, 0, err
		}
		var t *tracer
		if i == setupRepeats-1 {
			t = tr
		}
		t0 := time.Now()
		cl, err = bootCluster(dir, sm, t)
		if err == nil && prepare != nil {
			if err = prepare(cl); err != nil {
				cl.close()
			}
		}
		if err != nil {
			os.RemoveAll(dir)
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			cl.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, 0, err
			}
		}
	}
	return cl, median(times), nil
}

// teardown stops the cluster and removes its data.
func (c *testCluster) teardown() {
	c.close()
	os.RemoveAll(c.dir)
}

// stepStats summarizes one ladder step.
type stepStats struct {
	Rate    float64 `json:"rate_per_s"`
	N       int     `json:"n"`
	Failed  int     `json:"failed"`
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	Backlog int     `json:"backlog_at_end"`
	Pass    bool    `json:"meets_limit"`
}

// summarizeStep checks a step against the latency limit: p90 within
// writeLimit, no failures, and no growing backlog — when the last
// operation fell due, no more were unfinished than the conns in flight
// plus the limit's worth of arrivals.
func summarizeStep(rate float64, conns int, res []*opResult) stepStats {
	st := stepStats{Rate: rate, N: len(res)}
	var lat []float64
	var lastDue time.Time
	for _, r := range res {
		if r.err != nil {
			st.Failed++
			continue
		}
		lat = append(lat, ms(r.latency()))
		if r.dueAt.After(lastDue) {
			lastDue = r.dueAt
		}
	}
	for _, r := range res {
		if r.err == nil && r.doneAt.After(lastDue) {
			st.Backlog++
		}
	}
	st.P50, st.P90 = median(lat), quantile(lat, 0.9)
	st.Pass = st.Failed == 0 && st.P90 <= ms(writeLimit) && float64(st.Backlog) <= float64(conns)+rate*writeLimit.Seconds()
	return st
}

// saturate keeps every connection busy with writes for d and returns
// the results and the acked-writes rate.
func (lc *loadClient) saturate(seed int64, d time.Duration) ([]*opResult, float64) {
	var (
		mu   sync.Mutex
		res  []*opResult
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(d)
	for i := 0; i < lc.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)))
				op := planOps(rng, fmt.Sprintf("sat-%d", k), 1, 1, allWrites)[0]
				now := time.Now()
				r := &opResult{plannedOp: op, dueAt: now, enqueuedAt: now, req: lc.tr.newReq()}
				lc.do(r)
				mu.Lock()
				res = append(res, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var acked int
	last := start
	for _, r := range res {
		if r.err == nil {
			acked++
		}
		if r.doneAt.After(last) {
			last = r.doneAt
		}
	}
	return res, float64(acked) / last.Sub(start).Seconds()
}

// checkReplicas waits for the drained cluster to converge on one commit
// index and checks that every replica holds every acked write.
func checkReplicas(out *outcome, cl *testCluster, acked []string) {
	if err := cl.waitConverged(10 * time.Second); err != nil {
		out.violate("replicas: %v", err)
	}
	for _, n := range cl.nodes {
		held, err := heldIDs(n.sm)
		if err != nil {
			out.violate("reading %s: %v", n.id, err)
			continue
		}
		missing := 0
		for _, id := range acked {
			if !held[id] {
				missing++
			}
		}
		if missing > 0 {
			out.violate("%s lost %d of %d acked writes", n.id, missing, len(acked))
		}
	}
}

// checkReadFloors checks that every lease or quorum read contains every
// write acked before the read was sent.
func checkReadFloors(out *outcome, res []*opResult, acked []string) {
	stale := 0
	for _, r := range res {
		if r.err != nil || (r.kind != opReadLease && r.kind != opReadQuorum) {
			continue
		}
		for _, id := range acked[:r.floor] {
			if !r.posts[id] {
				stale++
				out.violate("%s read %s misses write %s acked before it was sent", r.kind, r.id, id)
				break
			}
		}
		if stale >= 5 {
			return
		}
	}
}

// latencies returns the latencies in ms of the successful operations of
// the given kinds.
func latencies(res []*opResult, kinds ...string) []float64 {
	var out []float64
	for _, r := range res {
		if r.err != nil {
			continue
		}
		for _, k := range kinds {
			if r.kind == k {
				out = append(out, ms(r.latency()))
				break
			}
		}
	}
	return out
}

func tally(out *outcome, res []*opResult) {
	for _, r := range res {
		out.attempted++
		if r.err != nil {
			out.failed++
		}
	}
}

// genLag is the p90 of how late the generator enqueued operations.
func genLag(res []*opResult) float64 {
	var lag []float64
	for _, r := range res {
		lag = append(lag, ms(r.enqueuedAt.Sub(r.dueAt)))
	}
	return quantile(lag, 0.9)
}

func latencyMetric(xs []float64, q float64) metric {
	return metric{Value: quantile(xs, q), Unit: "ms", N: len(xs)}
}

// runClusterWrite drives the null-state-machine cluster with writes over
// a ladder of rates: lowRate for 65% of the run, highRate for 10%, then
// saturation for 15%.
func runClusterWrite(ctx context.Context, c config) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	cl, setup, err := setupCluster(c, "null", tr, nil)
	if err != nil {
		return nil, err
	}
	defer cl.teardown()
	out.e2e[mSetup] = metric{Value: setup, Unit: "s", N: setupRepeats}
	lc := newLoadClient(cl.leader().url, c.par, tr)
	defer lc.close()
	stopLag := cl.sampleLag(tr)
	since, c0 := tr.now(), tr.countersOrNil()

	rng := rand.New(rand.NewSource(c.seed))
	secs := c.seconds
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	low := lc.run(planOps(rng, "low", max(1, int(lowRate*0.65*secs)), lowRate, allWrites))
	high := lc.run(planOps(rng, "high", max(1, int(highRate*0.10*secs)), highRate, allWrites))
	sat, capacity := lc.saturate(c.seed, time.Duration(0.15*secs*float64(time.Second)))
	runtime.ReadMemStats(&m1)
	all := append(append(append([]*opResult(nil), low...), high...), sat...)
	lagMax := stopLag()

	tally(out, all)
	acked := lc.ackedWrites()
	checkReplicas(out, cl, acked)

	steps := []stepStats{summarizeStep(lowRate, c.par, low), summarizeStep(highRate, c.par, high)}
	maxRate := 0.0
	for _, s := range steps {
		if s.Pass {
			maxRate = s.Rate
		}
	}
	lowLat := latencies(low, opWrite)
	done := float64(len(acked))
	out.e2e[mThroughput] = metric{Value: capacity, Unit: "1/s", N: len(sat)}
	out.e2e[mP50] = latencyMetric(lowLat, 0.5)
	out.e2e[mP90] = latencyMetric(lowLat, 0.9)
	out.named["setup_s"] = out.e2e[mSetup]
	out.named["write_p50_ms"] = out.e2e[mP50]
	out.named["write_p90_ms"] = out.e2e[mP90]
	out.named["write_max_rate"] = metric{Value: maxRate, Unit: "writes/s"}
	out.named["write_capacity"] = metric{Value: capacity, Unit: "writes/s", N: len(sat)}
	satLat := latencies(sat, opWrite)
	out.extra["ladder"] = map[string]any{
		"limit_p90_ms": ms(writeLimit), "steps": steps,
		"saturation": map[string]float64{"acked_per_s": capacity, "n": float64(len(sat)), "p50_ms": median(satLat), "p90_ms": quantile(satLat, 0.9)},
	}
	lag := genLag(append(append([]*opResult(nil), low...), high...))
	out.named["gen.lag_p90_ms"] = metric{Value: lag, Unit: "ms"}
	out.valid = lag <= ms(maxGenLag)
	if c.trace {
		out.layers["gen.lag_p90_ms"] = metric{Value: lag, Unit: "ms"}
		out.layers["traced.throughput_per_s"] = out.e2e[mThroughput]
		out.layers["traced.latency_p50_ms"] = out.e2e[mP50]
		out.layers["runtime.allocs_per_op"] = metric{Value: float64(m1.Mallocs-m0.Mallocs) / done, Unit: "count"}
		out.layers["runtime.alloc_bytes_per_op"] = metric{Value: float64(m1.TotalAlloc-m0.TotalAlloc) / done, Unit: "bytes"}
		clusterLayers(out, tr, cl, low, len(acked), lagMax, since, c0)
		writeSpans(c, tr, out)
	}
	return out, nil
}

// mixKinds deals the cluster-mixed operation kinds in shuffled blocks of
// ten: one write and three reads of each mode, so every run has the
// same mix and the seed decides only the order.
func mixKinds(rng *rand.Rand, n int) func() string {
	block := []string{opWrite, opReadLocal, opReadLocal, opReadLocal, opReadLease, opReadLease, opReadLease, opReadQuorum, opReadQuorum, opReadQuorum}
	var kinds []string
	for len(kinds) < n {
		b := append([]string(nil), block...)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		kinds = append(kinds, b...)
	}
	i := 0
	return func() string {
		k := kinds[i]
		i++
		return k
	}
}

// prepopulate writes posts straight into the leader, one at a time:
// concurrent writes would each apply under the node lock back to back,
// long enough to starve heartbeats and trigger an election.
func prepopulate(seed int64) func(*testCluster) error {
	return func(cl *testCluster) error {
		for i := 0; i < prepopulated; i++ {
			site := sites[i%len(sites)]
			err := cl.leader().node.Write(simnet.Site(site), service.Post{
				ID: prepopulatedID(seed, i), Author: site, Body: "prepopulated",
			})
			if err != nil {
				return fmt.Errorf("prepopulating: %w", err)
			}
		}
		return cl.waitConverged(10 * time.Second)
	}
}

func prepopulatedID(seed int64, i int) string { return fmt.Sprintf("pre-%d-%d", seed, i) }

// runClusterMixed drives the blogger cluster at mixedRate with 10%
// writes and reads split evenly over the three read modes.
func runClusterMixed(ctx context.Context, c config) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	cl, setup, err := setupCluster(c, "blogger", tr, prepopulate(c.seed))
	if err != nil {
		return nil, err
	}
	defer cl.teardown()
	out.e2e[mSetup] = metric{Value: setup, Unit: "s", N: setupRepeats}
	lc := newLoadClient(cl.leader().url, c.par, tr)
	defer lc.close()
	for i := 0; i < prepopulated; i++ {
		lc.acked = append(lc.acked, prepopulatedID(c.seed, i))
	}
	stopLag := cl.sampleLag(tr)
	since, c0 := tr.now(), tr.countersOrNil()

	rng := rand.New(rand.NewSource(c.seed))
	n := max(10, int(mixedRate*c.seconds))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := lc.run(planOps(rng, "mix", n, mixedRate, mixKinds(rng, n)))
	runtime.ReadMemStats(&m1)
	lagMax := stopLag()

	tally(out, res)
	acked := lc.ackedWrites()
	checkReadFloors(out, res, acked)
	checkReplicas(out, cl, acked)

	var start, last time.Time
	completed := 0
	for _, r := range res {
		if start.IsZero() || r.dueAt.Before(start) {
			start = r.dueAt
		}
		if r.doneAt.After(last) {
			last = r.doneAt
		}
		if r.err == nil {
			completed++
		}
	}
	reads := latencies(res, opReadLocal, opReadLease, opReadQuorum)
	out.e2e[mThroughput] = metric{Value: float64(completed) / last.Sub(start).Seconds(), Unit: "1/s", N: completed}
	out.e2e[mP50] = latencyMetric(reads, 0.5)
	out.e2e[mP90] = latencyMetric(reads, 0.9)
	out.named["setup_s"] = out.e2e[mSetup]
	for _, k := range []string{opWrite, opReadLocal, opReadLease, opReadQuorum} {
		lat := latencies(res, k)
		out.named[k+"_p50_ms"] = latencyMetric(lat, 0.5)
		out.named[k+"_p90_ms"] = latencyMetric(lat, 0.9)
	}
	fallbacks := 0
	for _, r := range res {
		if r.kind == opReadLease && r.usedMode != "" && r.usedMode != "lease" {
			fallbacks++
		}
	}
	out.extra["lease_fallbacks"] = fallbacks
	lag := genLag(res)
	out.named["gen.lag_p90_ms"] = metric{Value: lag, Unit: "ms"}
	out.valid = lag <= ms(maxGenLag)
	if c.trace {
		out.layers["gen.lag_p90_ms"] = metric{Value: lag, Unit: "ms"}
		out.layers["traced.throughput_per_s"] = out.e2e[mThroughput]
		out.layers["traced.latency_p50_ms"] = out.e2e[mP50]
		ops := float64(max(1, completed))
		out.layers["runtime.allocs_per_op"] = metric{Value: float64(m1.Mallocs-m0.Mallocs) / ops, Unit: "count"}
		out.layers["runtime.alloc_bytes_per_op"] = metric{Value: float64(m1.TotalAlloc-m0.TotalAlloc) / ops, Unit: "bytes"}
		clusterLayers(out, tr, cl, res, len(acked)-prepopulated, lagMax, since, c0)
		writeSpans(c, tr, out)
	}
	return out, nil
}

// sampleLag samples the largest follower lag every 50ms in the traced
// run (Status takes the leader's lock, so the untraced run does not).
// The returned stop function ends the sampling and returns the maximum.
func (c *testCluster) sampleLag(tr *tracer) func() uint64 {
	if tr == nil {
		return func() uint64 { return 0 }
	}
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		var m uint64
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- m
				return
			case <-t.C:
				m = max(m, c.followerLag())
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-done
	}
}

// clusterLayers derives the cluster's per-layer metrics from the spans
// and counters the traced run recorded since load began (at tracer time
// since, with counters c0). res are the operations whose write and read
// paths are decomposed; writes is how many writes the cluster acked
// during the load.
func clusterLayers(out *outcome, tr *tracer, cl *testCluster, res []*opResult, writes int, lagMax uint64, since int64, c0 map[string]float64) {
	perWrite := func(v float64) float64 { return v / float64(max(1, writes)) }
	counted := func(name string) float64 { return tr.count(name) - c0[name] }
	setMS := func(name string, xs []float64, q float64) {
		out.layers[name] = metric{Value: quantile(xs, q), Unit: "ms", N: len(xs)}
	}
	byReq := func(name string) map[uint64]span {
		m := map[uint64]span{}
		for _, s := range tr.byName(name, since) {
			if s.Req != 0 {
				m[s.Req] = s
			}
		}
		return m
	}

	// The write path, per write of res: client round trip = HTTP
	// overhead + the handler, whose children are propose and commit
	// wait; latency from due adds the client's queue wait.
	handlers, clients := byReq("httpapi.handler"), byReq("client."+opWrite)
	proposes, commits := byReq("cluster.propose"), byReq("cluster.commit_wait")
	var lat, queue, propose, commit, overhead, handlerSelf []float64
	for _, r := range res {
		if r.err != nil || r.kind != opWrite {
			continue
		}
		c, ok1 := clients[r.req]
		h, ok2 := handlers[r.req]
		p, ok3 := proposes[r.req]
		w, ok4 := commits[r.req]
		if !(ok1 && ok2 && ok3 && ok4) {
			continue
		}
		lat = append(lat, ms(r.latency()))
		queue = append(queue, ms(r.sentAt.Sub(r.dueAt)))
		propose = append(propose, ms(p.dur()))
		commit = append(commit, ms(w.dur()))
		overhead = append(overhead, ms(c.dur()-h.dur()))
		handlerSelf = append(handlerSelf, ms(selfTime(h, []span{p, w})))
	}
	setMS("cluster.propose_p50_ms", propose, 0.5)
	setMS("cluster.propose_p90_ms", propose, 0.9)
	setMS("cluster.commit_wait_p50_ms", commit, 0.5)
	setMS("cluster.commit_wait_p90_ms", commit, 0.9)
	setMS("httpapi.overhead_ms", overhead, 0.5)
	if len(lat) > 0 {
		parts := median(propose) + median(commit) + median(overhead)
		out.layers["cluster.write_unattributed_ms"] = metric{Value: median(lat) - parts, Unit: "ms", N: len(lat)}
		// Means add up exactly; the p50s above leave a remainder.
		out.extra["write_decomposition_mean_ms"] = map[string]float64{
			"latency": mean(lat), "client_queue": mean(queue), "httpapi_overhead": mean(overhead),
			"handler_self": mean(handlerSelf), "propose": mean(propose), "commit_wait": mean(commit),
		}
	}

	applies := tr.durationsMS("service.apply", since)
	setMS("service.apply_ms", applies, 0.5)
	out.layers["service.applies_per_write"] = metric{Value: perWrite(float64(len(applies))), Unit: "count"}
	reads := byReq("service.read")
	var readMS []float64
	for _, s := range reads {
		readMS = append(readMS, ms(s.dur()))
	}
	setMS("service.read_ms", readMS, 0.5)

	fsync := tr.durationsMS("wal.fsync", since)
	setMS("wal.fsync_ms", fsync, 0.5)
	out.layers["wal.fsyncs_per_write"] = metric{Value: perWrite(float64(len(fsync))), Unit: "count"}
	out.layers["wal.bytes_per_write"] = metric{Value: perWrite(counted("wal.bytes")), Unit: "bytes"}

	pulls := counted("rpcs.pull")
	out.layers["cluster.rpcs_per_write.pull"] = metric{Value: perWrite(pulls), Unit: "count"}
	out.layers["cluster.rpcs_per_write.heartbeat"] = metric{Value: perWrite(counted("rpcs.heartbeat")), Unit: "count"}
	out.layers["cluster.rpc_bytes_per_write"] = metric{Value: perWrite(counted("rpc_bytes")), Unit: "bytes"}
	if pulls > 0 {
		out.layers["cluster.empty_pull_ratio"] = metric{Value: counted("rpcs.pull_empty") / pulls, Unit: "ratio"}
	}
	setMS("cluster.pull_rtt_ms", tr.durationsMS("rpc.pull", since), 0.5)
	setMS("cluster.heartbeat_rtt_ms", tr.durationsMS("rpc.heartbeat", since), 0.5)

	// Read wait: /cluster/read handler time minus the state machine's
	// read, per linearizable read mode.
	readHandlers := byReq("cluster.handler/read")
	wait := map[string][]float64{}
	for _, r := range res {
		if r.err != nil || (r.kind != opReadLease && r.kind != opReadQuorum) {
			continue
		}
		if h, ok := readHandlers[r.req]; ok {
			if s, ok := reads[r.req]; ok {
				wait[r.kind] = append(wait[r.kind], ms(selfTime(h, []span{s})))
			}
		}
	}
	setMS("cluster.read_wait_ms.lease", wait[opReadLease], 0.5)
	setMS("cluster.read_wait_ms.quorum", wait[opReadQuorum], 0.5)

	el, sd := cl.events()
	out.layers["cluster.elections"] = metric{Value: float64(el), Unit: "count"}
	out.layers["cluster.step_downs"] = metric{Value: float64(sd), Unit: "count"}
	out.layers["cluster.follower_lag_max"] = metric{Value: float64(lagMax), Unit: "count"}
}
