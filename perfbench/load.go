package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"conprobe/internal/httpapi"
)

var errUnsent = errors.New("not sent before the drain deadline")

// Operation kinds of the cluster workloads.
const (
	opWrite      = "write"
	opReadLocal  = "read_local"
	opReadLease  = "read_lease"
	opReadQuorum = "read_quorum"
)

var sites = []string{"oregon", "tokyo", "ireland"}

// plannedOp is one generated input: what to send, and when it is due
// (relative to the start of its step).
type plannedOp struct {
	kind string
	due  time.Duration
	site string
	id   string // post ID (writes) or reader label (reads)
	body string
}

// opResult is what happened to one planned operation.
type opResult struct {
	plannedOp
	req        uint64
	dueAt      time.Time
	enqueuedAt time.Time
	sentAt     time.Time
	doneAt     time.Time
	status     int
	err        error
	usedMode   string
	posts      map[string]bool
	// floor is how many writes had been acked when a read was sent;
	// a lease or quorum read must contain all of them.
	floor int
	// drainBy is when a still-queued operation is given up as unsent.
	drainBy time.Time
}

// latency is the time from when the operation was due to its reply.
func (r *opResult) latency() time.Duration { return r.doneAt.Sub(r.dueAt) }

func (r *opResult) ok() bool {
	if r.err != nil {
		return false
	}
	if r.kind == opWrite {
		return r.status == http.StatusCreated
	}
	return r.status == http.StatusOK
}

// planOps generates n operations at a fixed rate. The k-th is due at a
// uniformly random instant of its own 1/rate slot, so arrivals keep the
// rate without locking into phase with the cluster's timers. Client
// sites are dealt in shuffled rounds, so each site sends an equal share
// (latency depends on the site). mix gives the kind of each operation.
func planOps(rng *rand.Rand, prefix string, n int, rate float64, mix func() string) []plannedOp {
	slot := time.Duration(float64(time.Second) / rate)
	ops := make([]plannedOp, n)
	var round []int
	for k := range ops {
		if len(round) == 0 {
			round = rng.Perm(len(sites))
		}
		kind := mix()
		op := plannedOp{
			kind: kind,
			due:  time.Duration(k)*slot + time.Duration(rng.Int63n(int64(slot))),
			site: sites[round[0]],
			id:   fmt.Sprintf("%s-%d", prefix, k),
		}
		round = round[1:]
		if kind == opWrite {
			b := make([]byte, 16+rng.Intn(48))
			for i := range b {
				b[i] = 'a' + byte(rng.Intn(26))
			}
			op.body = string(b)
		} else {
			op.id = "reader-" + op.id
		}
		ops[k] = op
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// loadClient drives one cluster node open loop over a fixed set of
// connections: one sender goroutine per connection takes due operations
// in order from a shared queue.
type loadClient struct {
	base  string
	hc    *http.Client
	conns int
	tr    *tracer

	mu    sync.Mutex
	acked []string // write IDs in the order their acks arrived
}

func newLoadClient(base string, conns int, tr *tracer) *loadClient {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadClient{base: base, conns: conns, tr: tr, hc: &http.Client{Transport: t, Timeout: 30 * time.Second}}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// ackedCount returns how many writes have been acked so far.
func (c *loadClient) ackedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.acked)
}

// ackedWrites returns the acked write IDs in ack order.
func (c *loadClient) ackedWrites() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.acked...)
}

// run issues ops on schedule starting now and returns once every
// operation has completed. The generator enqueues each operation at its
// due instant and never blocks, so a slow cluster builds a queue whose
// wait shows in every later operation's latency.
func (c *loadClient) run(ops []plannedOp) []*opResult {
	res := make([]*opResult, len(ops))
	queue := make(chan *opResult, len(ops)) // sized to the sends: the generator never blocks
	var wg sync.WaitGroup
	for i := 0; i < c.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range queue {
				c.do(r)
			}
		}()
	}
	start := time.Now()
	drainBy := start.Add(drainLimit)
	if len(ops) > 0 {
		drainBy = drainBy.Add(ops[len(ops)-1].due)
	}
	for i, op := range ops {
		r := &opResult{plannedOp: op, dueAt: start.Add(op.due), req: c.tr.newReq(), drainBy: drainBy}
		if d := time.Until(r.dueAt); d > 0 {
			time.Sleep(d)
		}
		r.enqueuedAt = time.Now()
		res[i] = r
		queue <- r
	}
	close(queue)
	wg.Wait()
	return res
}

func (c *loadClient) do(r *opResult) {
	if !r.drainBy.IsZero() && time.Now().After(r.drainBy) {
		r.err = errUnsent
		r.doneAt = time.Now()
		return
	}
	var req *http.Request
	var err error
	switch r.kind {
	case opWrite:
		// Marshalling a struct of strings cannot fail.
		body, _ := json.Marshal(httpapi.PostJSON{ID: r.id, Author: r.site, Body: r.body})
		req, err = http.NewRequest(http.MethodPost, c.base+"/posts", bytes.NewReader(body))
	case opReadLocal:
		req, err = http.NewRequest(http.MethodGet, c.base+"/posts?reader="+r.id, nil)
	case opReadLease:
		req, err = http.NewRequest(http.MethodGet, c.base+"/cluster/read?mode=lease&reader="+r.id, nil)
	case opReadQuorum:
		req, err = http.NewRequest(http.MethodGet, c.base+"/cluster/read?mode=quorum&reader="+r.id, nil)
	}
	if err != nil {
		r.err = err
		r.doneAt = time.Now()
		return
	}
	req.Header.Set(httpapi.SiteHeader, r.site)
	if c.tr != nil {
		req.Header.Set(reqHeader, strconv.FormatUint(r.req, 10))
		c.tr.bind(r.id, r.req)
	}
	r.floor = c.ackedCount()
	r.sentAt = time.Now()
	t0 := c.tr.now()
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err = err
		r.doneAt = time.Now()
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.doneAt = time.Now()
	r.status = resp.StatusCode
	c.tr.record(r.req, "client."+r.kind, "", t0, c.tr.now())
	if err != nil {
		r.err = err
		return
	}
	if !r.ok() {
		r.err = fmt.Errorf("%s %s: status %d: %s", r.kind, r.id, r.status, bytes.TrimSpace(data))
		return
	}
	switch r.kind {
	case opWrite:
		c.mu.Lock()
		c.acked = append(c.acked, r.id)
		c.mu.Unlock()
	case opReadLocal:
		var posts []httpapi.PostJSON
		r.err = json.Unmarshal(data, &posts)
		r.posts = postSet(posts)
	default:
		var body struct {
			Mode  string             `json:"mode"`
			Posts []httpapi.PostJSON `json:"posts"`
		}
		r.err = json.Unmarshal(data, &body)
		r.usedMode = body.Mode
		r.posts = postSet(body.Posts)
	}
}

func postSet(posts []httpapi.PostJSON) map[string]bool {
	out := make(map[string]bool, len(posts))
	for _, p := range posts {
		out[p.ID] = true
	}
	return out
}
