package probe

import (
	"context"
	"fmt"
	"slices"
	"time"

	"conprobe/internal/service"
	"conprobe/internal/trace"
)

// RunTest2 executes one instance of Test 2 (Figure 2): every agent issues
// a single write as simultaneously as the estimated clock deltas allow,
// then reads continuously — the first FastReads reads at ReadPeriod, the
// rest at SlowPeriod — until it has performed ReadsPerAgent reads. The
// adaptive period gives high resolution while writes become visible
// without exceeding service rate limits. Cancelling ctx makes each agent
// stop at its next operation boundary.
func (r *Runner) RunTest2(ctx context.Context, testID int) (*trace.TestTrace, error) {
	tr, err := r.newTrace(testID, trace.Test2)
	if err != nil {
		return nil, err
	}
	start := r.rt.Now().Add(r.cfg.StartDelay)

	g := r.rt.NewGroup()
	for i, ag := range r.cfg.Agents {
		rec := r.recs[i]
		rec.reset()
		rec.reads = slices.Grow(rec.reads, r.cfg.Test2.ReadsPerAgent)
		ag := ag
		client := r.clients[i]
		g.Go(func() {
			r.runTest2Agent(ctx, ag, client, testID, localStart(start, tr.Deltas[ag.ID]), rec)
		})
	}
	g.Join()
	r.finish(tr)
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("test2 produced invalid trace: %w", err)
	}
	return tr, nil
}

// runTest2Agent is one agent's Test 2 protocol.
func (r *Runner) runTest2Agent(ctx context.Context, ag Agent, client service.Service, testID int, startLocal time.Time, rec *recorder) {
	cl := ag.Clock
	cfg := r.cfg.Test2
	sleepUntil(cl, startLocal)

	if ctx.Err() != nil {
		return
	}
	r.doWrite(ag, client, rec, writeID(testID, int(ag.ID)), "")
	for n := 0; n < cfg.ReadsPerAgent; n++ {
		if ctx.Err() != nil {
			return
		}
		r.doRead(ag, client, rec)
		if n == cfg.ReadsPerAgent-1 {
			break
		}
		period := cfg.ReadPeriod
		if cfg.FastReads > 0 && n >= cfg.FastReads {
			period = cfg.SlowPeriod
		}
		cl.Sleep(period)
	}
}
