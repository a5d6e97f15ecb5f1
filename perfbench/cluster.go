package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"conprobe/internal/cluster"
	"conprobe/internal/diskfault"
	"conprobe/internal/httpapi"
	"conprobe/internal/obs"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
	"conprobe/internal/vtime"
)

// consvc's production defaults (cmd/consvc flags). None is tuned here,
// so the known defects of the write path stay visible.
const (
	pullInterval      = 250 * time.Millisecond
	snapshotEvery     = 256
	electionTimeout   = time.Second
	heartbeatInterval = 100 * time.Millisecond
	perClientRate     = 20
	// clusterSeed keys the nodes' election jitter. It is a property of
	// the program, not a generated input, so it does not follow --seed.
	clusterSeed = 1
	reqHeader   = "X-Bench-Req"
)

// nullSM is the state machine of cluster-write: it remembers which
// write IDs it holds, so the durability gate can check every replica,
// and does nothing else.
type nullSM struct {
	mu  sync.Mutex
	ids map[string]bool
}

func newNullSM() *nullSM { return &nullSM{ids: map[string]bool{}} }

func (s *nullSM) Name() string { return "null" }
func (s *nullSM) Write(_ simnet.Site, p service.Post) error {
	s.mu.Lock()
	s.ids[p.ID] = true
	s.mu.Unlock()
	return nil
}
func (s *nullSM) Read(simnet.Site, string) ([]service.Post, error) { return nil, nil }
func (s *nullSM) Reset() error {
	s.mu.Lock()
	s.ids = map[string]bool{}
	s.mu.Unlock()
	return nil
}

// heldIDs lists the write IDs a replica's state machine holds.
func heldIDs(sm service.Service) (map[string]bool, error) {
	if n, ok := sm.(*nullSM); ok {
		n.mu.Lock()
		defer n.mu.Unlock()
		out := make(map[string]bool, len(n.ids))
		for id := range n.ids {
			out[id] = true
		}
		return out, nil
	}
	posts, err := sm.Read(simnet.Oregon, "bench-check")
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(posts))
	for _, p := range posts {
		out[p.ID] = true
	}
	return out, nil
}

// newBloggerSM is the blogger profile state machine with no API delay:
// its apply still sleeps the simulated network delay in real time.
func newBloggerSM(seed int64) (service.Service, error) {
	prof := service.Blogger()
	prof.APIDelay = 0
	net := simnet.DefaultTopology(seed, simnet.WithJitter(0.1))
	return service.NewSimulated(vtime.Real{}, net, prof, seed)
}

// benchNode is one in-process cluster member served on real loopback
// HTTP.
type benchNode struct {
	id, url string
	node    *cluster.Node
	sm      service.Service
	srv     *http.Server
	done    chan struct{}
	// elections and stepDowns count protocol events seen via OnEvent.
	elections, stepDowns atomic.Int64
}

// testCluster is a 3-node consvc cluster inside this process.
type testCluster struct {
	nodes []*benchNode
	dir   string
}

// bootCluster starts three nodes in dir, n1 bootstrapping leadership the
// way consvc -role leader does on a pristine data directory, and
// returns once the followers have caught up with the leader's log.
func bootCluster(dir, smKind string, tr *tracer) (*testCluster, error) {
	c := &testCluster{dir: dir}
	var lns []net.Listener
	var urls []string
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	// fail releases what was started: the nodes serving so far and the
	// listeners not yet handed to a server.
	fail := func(err error) (*testCluster, error) {
		for _, l := range lns[len(c.nodes):] {
			l.Close()
		}
		c.close()
		return nil, err
	}
	for i := range lns {
		id := "n" + strconv.Itoa(i+1)
		var sm service.Service
		if smKind == "null" {
			sm = newNullSM()
		} else {
			var err error
			if sm, err = newBloggerSM(int64(i + 1)); err != nil {
				return fail(err)
			}
		}
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		bn := &benchNode{id: id, url: urls[i], sm: sm, done: make(chan struct{})}
		role := ""
		if i == 0 {
			role = cluster.RoleLeader
		}
		sc := obs.NewRegistry().Scope("consvc")
		cfg := cluster.Config{
			NodeID:            id,
			Role:              role,
			LeaderURL:         urls[0],
			SelfURL:           urls[i],
			Peers:             peers,
			DataDir:           filepath.Join(dir, id),
			PullInterval:      pullInterval,
			SnapshotEvery:     snapshotEvery,
			ElectionTimeout:   electionTimeout,
			HeartbeatInterval: heartbeatInterval,
			DefaultReadMode:   "local",
			Seed:              clusterSeed,
			Clock:             vtime.Real{},
			Metrics:           sc.Sub("cluster"),
			OnEvent: func(ev cluster.Event) {
				switch ev.Type {
				case cluster.EventBecomeCandidate:
					bn.elections.Add(1)
				case cluster.EventStepDown:
					bn.stepDowns.Add(1)
				}
			},
		}
		nodeSM := sm
		if tr != nil {
			cfg.FS = &timedFS{tr: tr, node: id}
			cfg.HTTPClient = &http.Client{Timeout: 10 * time.Second, Transport: &timedTransport{tr: tr, base: http.DefaultTransport}}
			nodeSM = &timedSM{Service: sm, tr: tr, node: id}
		}
		node, err := cluster.NewNode(nodeSM, cfg)
		if err != nil {
			return fail(fmt.Errorf("booting %s: %w", id, err))
		}
		bn.node = node
		var front service.Service = node
		if tr != nil {
			front = &tracedFront{node: node, tr: tr}
		}
		api := httpapi.NewServer(front, httpapi.ServerConfig{
			Clock:         vtime.Real{},
			RatePerSecond: perClientRate,
			Metrics:       sc.Sub("httpapi"),
		})
		mux := http.NewServeMux()
		mux.Handle("/cluster/", node.Handler())
		mux.Handle("/", api)
		var h http.Handler = mux
		if tr != nil {
			h = &timedHandler{next: mux, tr: tr, node: id}
		}
		bn.srv = httpapi.Hardened("", h)
		go func(ln net.Listener) {
			defer close(bn.done)
			_ = bn.srv.Serve(ln) // returns http.ErrServerClosed on close
		}(lns[i])
		c.nodes = append(c.nodes, bn)
	}
	if err := c.waitConverged(10 * time.Second); err != nil {
		c.close()
		return nil, fmt.Errorf("cluster did not converge after boot: %w", err)
	}
	return c, nil
}

func (c *testCluster) leader() *benchNode { return c.nodes[0] }

// waitConverged waits until n1 leads and every node holds and has
// committed the leader's whole log.
func (c *testCluster) waitConverged(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		l := c.leader().node
		last := l.LastIndex()
		ok := l.Role() == cluster.RoleLeader && l.CommitIndex() == last
		for _, n := range c.nodes[1:] {
			ok = ok && n.node.LastIndex() == last && n.node.CommitIndex() == last
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			var parts []string
			for _, n := range c.nodes {
				parts = append(parts, fmt.Sprintf("%s %s last=%d commit=%d", n.id, n.node.Role(), n.node.LastIndex(), n.node.CommitIndex()))
			}
			return fmt.Errorf("not converged within %v: %s", limit, strings.Join(parts, "; "))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops every server and node and waits for the servers to exit.
func (c *testCluster) close() {
	for _, n := range c.nodes {
		_ = n.srv.Close()
		<-n.done
		_ = n.node.Close()
	}
}

// events sums elections started and step-downs over the cluster.
func (c *testCluster) events() (elections, stepDowns int64) {
	for _, n := range c.nodes {
		elections += n.elections.Load()
		stepDowns += n.stepDowns.Load()
	}
	return
}

// followerLag samples the leader's view of the largest follower lag.
func (c *testCluster) followerLag() uint64 {
	var lag uint64
	for _, f := range c.leader().node.Status().Followers {
		lag = max(lag, f.Lag)
	}
	return lag
}

// --- traced-run hooks -----------------------------------------------------

// tracedFront is the service.Service handed to httpapi in the traced
// run. Its Write is exactly Node.Write (ProposeWrite then WaitCommitted)
// with a span around each half.
type tracedFront struct {
	node *cluster.Node
	tr   *tracer
}

func (f *tracedFront) Name() string { return f.node.Name() }
func (f *tracedFront) Read(from simnet.Site, reader string) ([]service.Post, error) {
	return f.node.Read(from, reader)
}
func (f *tracedFront) Reset() error { return f.node.Reset() }
func (f *tracedFront) Write(from simnet.Site, p service.Post) error {
	req := f.tr.reqOf(p.ID)
	t0 := f.tr.now()
	idx, err := f.node.ProposeWrite(from, p)
	t1 := f.tr.now()
	f.tr.record(req, "cluster.propose", "", t0, t1)
	if err != nil {
		return err
	}
	err = f.node.WaitCommitted(idx)
	f.tr.record(req, "cluster.commit_wait", "", t1, f.tr.now())
	return err
}

// timedSM wraps the state machine passed to cluster.NewNode.
type timedSM struct {
	service.Service
	tr   *tracer
	node string
}

func (s *timedSM) Write(from simnet.Site, p service.Post) error {
	t0 := s.tr.now()
	err := s.Service.Write(from, p)
	s.tr.record(s.tr.reqOf(p.ID), "service.apply", s.node, t0, s.tr.now())
	return err
}

func (s *timedSM) Read(from simnet.Site, reader string) ([]service.Post, error) {
	t0 := s.tr.now()
	posts, err := s.Service.Read(from, reader)
	s.tr.record(s.tr.reqOf(reader), "service.read", s.node, t0, s.tr.now())
	return posts, err
}

// timedHandler times every HTTP request a node serves.
type timedHandler struct {
	next http.Handler
	tr   *tracer
	node string
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := h.tr.now()
	h.next.ServeHTTP(w, r)
	req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	name := "httpapi.handler"
	if strings.HasPrefix(r.URL.Path, "/cluster/") {
		name = "cluster.handler" + strings.TrimPrefix(r.URL.Path, "/cluster")
	}
	h.tr.record(req, name, h.node, t0, h.tr.now())
}

// timedTransport times the replication RPCs a node issues.
type timedTransport struct {
	tr   *tracer
	base http.RoundTripper
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	kind := strings.TrimPrefix(r.URL.Path, "/cluster/")
	t0 := t.tr.now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.tr.add("rpc_errors."+kind, 1)
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := t.tr.now()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return resp, err
	}
	t.tr.record(0, "rpc."+kind, "", t0, end)
	t.tr.add("rpcs."+kind, 1)
	t.tr.add("rpc_bytes", float64(len(body))+float64(r.ContentLength))
	if kind == "pull" {
		var pr cluster.PullResponse
		if json.Unmarshal(body, &pr) == nil && len(pr.Ops) == 0 {
			t.tr.add("rpcs.pull_empty", 1)
		}
	}
	return resp, nil
}

// timedFS times fsyncs and counts bytes written beneath a node's WAL,
// term log and snapshots.
type timedFS struct {
	tr   *tracer
	node string
}

func (f *timedFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	file, err := diskfault.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}
func (f *timedFS) Rename(o, n string) error              { return diskfault.OS.Rename(o, n) }
func (f *timedFS) Remove(name string) error              { return diskfault.OS.Remove(name) }
func (f *timedFS) Stat(name string) (os.FileInfo, error) { return diskfault.OS.Stat(name) }
func (f *timedFS) SyncDir(dir string) error {
	t0 := f.tr.now()
	err := diskfault.OS.SyncDir(dir)
	f.tr.record(0, "wal.syncdir", f.node, t0, f.tr.now())
	return err
}

type timedFile struct {
	diskfault.File
	fs *timedFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.tr.add("wal.bytes", float64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := f.fs.tr.now()
	err := f.File.Sync()
	f.fs.tr.record(0, "wal.fsync", f.fs.node, t0, f.fs.tr.now())
	return err
}
