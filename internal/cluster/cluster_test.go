package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"ccredf/internal/serve"
	"ccredf/internal/serve/client"
)

// testScenario renders a small, valid scenario whose results depend on
// seed, so distinct seeds produce distinct cache keys and result bytes.
func testScenario(seed uint64, horizonSlots int64) string {
	return fmt.Sprintf(`{
		"nodes": 8,
		"seed": %d,
		"horizon_slots": %d,
		"connections": [
			{"src": 0, "dests": [4], "period_slots": 10, "slots": 1}
		],
		"poisson": [
			{"node": 1, "mean_interarrival_slots": 12, "slots": 1, "rel_deadline_slots": 200}
		]
	}`, seed, horizonSlots)
}

// testPeer is one member of an in-process test cluster.
type testPeer struct {
	url  string
	srv  *serve.Server
	node *Node
	hs   *http.Server
	ln   net.Listener
}

// kill emulates a SIGKILL: the listener and all connections drop without
// any drain, and the background loops stop. Nothing is flushed or handed
// over.
func (p *testPeer) kill() {
	p.node.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	p.hs.Shutdown(ctx) //nolint:errcheck
	p.hs.Close()
	p.srv.Close()
}

// newTestCluster boots n federated peers on loopback listeners. Gossip runs
// every 40ms with a 200ms dead window so tests converge fast. Each tune
// function may adjust every peer's options before the node is built.
func newTestCluster(t *testing.T, n int, serveOpts func(i int) serve.Options, steal bool, tune ...func(*Options)) []*testPeer {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	peers := make([]*testPeer, n)
	for i := range peers {
		so := serve.Options{Workers: 2}
		if serveOpts != nil {
			so = serveOpts(i)
		}
		so.IDPrefix = IDPrefix(urls[i])
		srv := serve.New(so)
		opts := Options{
			Self:           urls[i],
			Peers:          urls,
			Server:         srv,
			GossipInterval: 40 * time.Millisecond,
			DeadAfter:      200 * time.Millisecond,
			StealInterval:  40 * time.Millisecond,
			StealLease:     2 * time.Second,
			Steal:          steal,
		}
		for _, f := range tune {
			f(&opts)
		}
		node, err := New(opts)
		if err != nil {
			t.Fatalf("cluster.New(%d): %v", i, err)
		}
		hs := &http.Server{Handler: node.Handler()}
		go hs.Serve(lns[i]) //nolint:errcheck
		node.Start()
		peers[i] = &testPeer{url: urls[i], srv: srv, node: node, hs: hs, ln: lns[i]}
	}
	t.Cleanup(func() {
		for _, p := range peers {
			p.kill()
		}
	})
	// Let one gossip round complete so every peer sees every peer alive.
	waitConverged(t, peers)
	return peers
}

// waitConverged blocks until every live peer sees every live peer alive.
func waitConverged(t *testing.T, peers []*testPeer) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		converged := true
		for _, p := range peers {
			alive := 0
			for _, v := range p.node.members.view() {
				if v.State == StateAlive {
					alive++
				}
			}
			if alive != len(peers) {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("cluster did not converge to all-alive")
}

func TestClusterForwardingAndCacheHits(t *testing.T) {
	peers := newTestCluster(t, 3, nil, false)
	scen := []byte(testScenario(7, 4000))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The same scenario submitted through every peer must return the same
	// bytes: the key has one ring owner, so whoever accepts the submission
	// forwards it there and the repeats are cache hits.
	var first []byte
	for i, p := range peers {
		c := client.New(p.url, client.Options{PollInterval: 20 * time.Millisecond})
		_, body, err := c.RunScenario(ctx, scen, 0)
		if err != nil {
			t.Fatalf("RunScenario via peer %d: %v", i, err)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(first, body) {
			t.Fatalf("peer %d returned different bytes for the same scenario", i)
		}
	}

	// Exactly one peer ran the simulation; at least one submission entered
	// through a non-owner and was forwarded.
	ran, forwards := 0, int64(0)
	for _, p := range peers {
		if done := p.srv.CacheStats().Entries; done > 0 {
			ran++
		}
		forwards += p.node.forwards.Load()
	}
	if ran != 1 {
		t.Errorf("cache line exists on %d peers, want exactly 1 (single owner)", ran)
	}
	if forwards == 0 {
		t.Error("no submission was forwarded; consistent-hash routing inactive")
	}
}

func TestClusterJobLookupProxied(t *testing.T) {
	peers := newTestCluster(t, 3, nil, false)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Submit through peer 0 and follow status + result through peer 0 only:
	// if the job landed elsewhere, peer 0 must proxy the lookups.
	c := client.New(peers[0].url, client.Options{PollInterval: 20 * time.Millisecond})
	st, err := c.SubmitScenario(ctx, []byte(testScenario(11, 4000)), 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = c.Await(ctx, st.ID)
	if err != nil {
		t.Fatalf("await: %v", err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	if _, err := c.Result(ctx, st.ID); err != nil {
		t.Fatalf("result via submitting peer: %v", err)
	}
}

func TestClusterScatterMatchesSingleDaemon(t *testing.T) {
	// All axes explicit (SubmitSweep expects a normalised spec); the values
	// match the defaults, so the cache key is unchanged either way.
	spec := func() *serve.SweepSpec {
		return &serve.SweepSpec{
			Protocols:    []string{"ccr-edf", "tdma"},
			Nodes:        []int{8},
			Loads:        []float64{0.4, 0.9},
			Localities:   []string{"uniform"},
			Seeds:        []uint64{1, 2},
			HorizonSlots: 2000,
		}
	}

	// Reference: one plain daemon, no cluster.
	single := serve.New(serve.Options{Workers: 2})
	defer single.Close()
	j, err := single.SubmitSweep(spec(), 0)
	if err != nil {
		t.Fatalf("single submit: %v", err)
	}
	want := awaitResult(t, single, j)

	peers := newTestCluster(t, 3, nil, false)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := client.New(peers[0].url, client.Options{PollInterval: 20 * time.Millisecond})
	_, got, err := c.RunSweep(ctx, spec(), 0)
	if err != nil {
		t.Fatalf("cluster sweep: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("scattered sweep bytes differ from single-daemon bytes:\nsingle:  %s\ncluster: %s", want, got)
	}

	// The grid really was scattered: sub-sweep cache lines exist on more
	// than one peer.
	scattered := int64(0)
	holders := 0
	for _, p := range peers {
		scattered += p.node.scatteredPoints.Load()
		if p.srv.CacheStats().Entries > 0 {
			holders++
		}
	}
	if scattered == 0 {
		t.Error("no points were scattered")
	}
	if holders < 2 {
		t.Errorf("sub-sweep cache lines on %d peers, want >= 2", holders)
	}
}

func TestClusterFailoverAfterPeerDeath(t *testing.T) {
	peers := newTestCluster(t, 3, nil, false)
	spec := &serve.SweepSpec{
		Protocols:    []string{"ccr-edf", "cc-fpr"},
		Nodes:        []int{8},
		Loads:        []float64{0.5},
		Localities:   []string{"uniform"},
		Seeds:        []uint64{1, 2, 3},
		HorizonSlots: 2000,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	c0 := client.New(peers[0].url, client.Options{PollInterval: 20 * time.Millisecond})
	_, want, err := c0.RunSweep(ctx, spec, 0)
	if err != nil {
		t.Fatalf("sweep before failure: %v", err)
	}

	// SIGKILL peer 1 and wait until the survivors agree it is dead.
	peers[1].kill()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if peers[0].node.members.state(peers[1].url) == StateDead &&
			peers[2].node.members.state(peers[1].url) == StateDead {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The same sweep through a survivor must still succeed, byte-identical:
	// points owned by the dead peer fail over to its ring successor and
	// re-run; the rest are cache hits.
	c2 := client.New(peers[2].url, client.Options{PollInterval: 20 * time.Millisecond})
	_, got, err := c2.RunSweep(ctx, spec, 0)
	if err != nil {
		t.Fatalf("sweep after peer death: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("post-failover sweep bytes differ from pre-failure bytes")
	}
}

func TestClusterWorkStealing(t *testing.T) {
	// Peer configuration: every peer has 1 worker, so a burst of slow jobs
	// on one peer backs up its queue and the idle peers steal.
	peers := newTestCluster(t, 3, func(i int) serve.Options {
		return serve.Options{Workers: 1, QueueDepth: 64}
	}, true)
	victim := peers[0]

	// Submit jobs pinned to the victim: the forwarded marker forces local
	// placement, exactly as a peer-to-peer forward would.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	hc := &http.Client{}
	var ids []string
	for seed := uint64(1); seed <= 8; seed++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, victim.url+"/v1/jobs",
			bytes.NewReader([]byte(testScenario(seed, 60000))))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(ForwardedHeader, "test")
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatalf("pinned submit: %v", err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("pinned submit: HTTP %d: %s", resp.StatusCode, b)
		}
		var st serve.JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("submit response: %v", err)
		}
		ids = append(ids, st.ID)
	}

	// All jobs finish done — locally or via a thief.
	c := client.New(victim.url, client.Options{PollInterval: 20 * time.Millisecond})
	for _, id := range ids {
		st, err := c.Await(ctx, id)
		if err != nil {
			t.Fatalf("await %s: %v", id, err)
		}
		if st.State != serve.StateDone {
			t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
		}
	}
	stolen := peers[1].node.steals.Load() + peers[2].node.steals.Load()
	if stolen == 0 {
		t.Error("no jobs were stolen from the backlogged victim")
	}
	if served := victim.node.stealsServed.Load(); served == 0 {
		t.Error("victim served no steal requests")
	}
}

// awaitResult waits for an in-process job and returns its result bytes.
func awaitResult(t *testing.T, srv *serve.Server, j *serve.Job) []byte {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish in time")
	}
	if j.State() != serve.StateDone {
		t.Fatalf("job finished %s: %s", j.State(), j.Err())
	}
	b, ok := j.Result()
	if !ok {
		t.Fatal("done job has no result bytes")
	}
	return b
}
