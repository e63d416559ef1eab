package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ccredf/internal/serve"
	"ccredf/internal/serve/client"
)

// Options configures one cluster peer.
type Options struct {
	// Self is this peer's advertise URL — the address the other peers reach
	// it at (e.g. "http://10.0.0.1:8080"). Required; must be one of Peers.
	Self string
	// Peers is the full static membership, Self included. The ring is built
	// from this set; membership changes are a rolling restart.
	Peers []string
	// Server is the local ccr-served core this node wraps. Required.
	Server *serve.Server
	// GossipInterval is the heartbeat period (default 1s).
	GossipInterval time.Duration
	// DeadAfter is how long a peer's digest may stagnate before the peer is
	// declared dead (default 3×GossipInterval).
	DeadAfter time.Duration
	// StealInterval is how often an idle node looks for work to steal
	// (default GossipInterval). Zero or negative with Steal false disables
	// the thief loop.
	StealInterval time.Duration
	// StealThreshold is the minimum queue depth a victim must report before
	// it is worth stealing from (default 2 — a single queued job is about to
	// be picked up by its own worker anyway).
	StealThreshold int
	// StealLease is how long a victim waits for a stolen result before
	// reclaiming the job (default 30s).
	StealLease time.Duration
	// Steal enables the thief loop.
	Steal bool
	// ForwardTimeout bounds each forwarded submission and each proxied
	// job-record call (default 3s; event streams are exempt). A hung owner
	// therefore degrades to serve-locally within one bounded wait instead of
	// pinning the client for the full transport timeout.
	ForwardTimeout time.Duration
	// StealTimeout bounds each steal request and each stolen-result post
	// (default 5s). A hung victim costs the thief one bounded round trip;
	// the victim's lease reclaims the job either way.
	StealTimeout time.Duration
	// Replicas is the virtual-node count per peer (default 64).
	Replicas int
	// Logf, when set, receives one-line operational log messages.
	Logf func(format string, args ...any)
}

// Node is one peer of a ccr-served cluster: the consistent-hash router,
// gossip participant, sweep scatterer and (optionally) work thief wrapped
// around a local serve.Server. Create with New, wire its Handler into the
// HTTP server, then Start the background loops.
type Node struct {
	opts    Options
	self    string
	srv     *serve.Server
	ring    *Ring
	members *membership

	// peerClient handles unary peer calls (forwards, steals, results);
	// gossipClient times out fast so a hung peer cannot stall a heartbeat;
	// streamClient has no timeout of its own, for proxied SSE event streams
	// and status long-polls (bounded by their request context instead).
	peerClient   *http.Client
	gossipClient *http.Client
	streamClient *http.Client

	// scatter holds one jobs-API client per remote peer for sweep points.
	scatter map[string]*client.Client

	seq atomic.Uint64

	// forwarded remembers which peer got each forwarded submission, so later
	// GET/DELETE /v1/jobs/{id} calls on this node can be proxied to the peer
	// that owns the job record. Bounded FIFO: an evicted entry just means a
	// later lookup 404s here and the client resubmits (a cache hit).
	forwardMu    sync.Mutex
	forwarded    map[string]string
	forwardOrder []string

	// stealBusy counts stolen jobs this node is executing right now; they
	// occupy no local worker slot, so idleness checks must add it in.
	stealBusy atomic.Int64

	// Prometheus counters.
	forwards        atomic.Int64
	forwardErrors   atomic.Int64
	proxies         atomic.Int64
	steals          atomic.Int64 // jobs this node stole and ran
	stealsServed    atomic.Int64 // jobs handed out to thieves
	stealErrors     atomic.Int64
	reclaims        atomic.Int64
	gossipRounds    atomic.Int64
	scatteredPoints atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// maxForwardedIDs bounds the forwarded-job routing table.
const maxForwardedIDs = 4096

// New validates the options and builds the node. The server's sweep scatter
// hook is installed here; the gossip and thief loops start with Start.
func New(opts Options) (*Node, error) {
	if opts.Server == nil {
		return nil, fmt.Errorf("cluster: Server is required")
	}
	opts.Self = NormalizePeer(opts.Self)
	if opts.Self == "" {
		return nil, fmt.Errorf("cluster: Self advertise URL is required")
	}
	ring := NewRing(opts.Peers, opts.Replicas)
	if len(ring.Peers()) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 distinct peers, have %d", len(ring.Peers()))
	}
	found := false
	for _, p := range ring.Peers() {
		if p == opts.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: Self %q is not in the peer list", opts.Self)
	}
	if opts.GossipInterval <= 0 {
		opts.GossipInterval = time.Second
	}
	if opts.DeadAfter <= 0 {
		opts.DeadAfter = 3 * opts.GossipInterval
	}
	if opts.StealInterval <= 0 {
		opts.StealInterval = opts.GossipInterval
	}
	if opts.StealThreshold <= 0 {
		opts.StealThreshold = 2
	}
	if opts.StealLease <= 0 {
		opts.StealLease = 30 * time.Second
	}
	if opts.ForwardTimeout <= 0 {
		opts.ForwardTimeout = 3 * time.Second
	}
	if opts.StealTimeout <= 0 {
		opts.StealTimeout = 5 * time.Second
	}
	gossipTimeout := 2 * opts.GossipInterval
	if gossipTimeout < time.Second {
		gossipTimeout = time.Second
	}
	if gossipTimeout > 5*time.Second {
		gossipTimeout = 5 * time.Second
	}
	n := &Node{
		opts:         opts,
		self:         opts.Self,
		srv:          opts.Server,
		ring:         ring,
		members:      newMembership(opts.Self, ring.Peers(), opts.DeadAfter, nil),
		peerClient:   &http.Client{Timeout: 10 * time.Second},
		gossipClient: &http.Client{Timeout: gossipTimeout},
		streamClient: &http.Client{},
		forwarded:    make(map[string]string),
		stop:         make(chan struct{}),
	}
	// Seed our own digest so the first forwarded request does not see self
	// as dead before the first gossip tick.
	n.members.updateSelf(n.selfDigest())
	n.scatter = n.scatterClients()
	n.srv.SetSweepScatter(n.ScatterSweep)
	return n, nil
}

// Start launches the gossip heartbeat and, if enabled, the thief loop.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.gossipLoop()
	if n.opts.Steal {
		n.wg.Add(1)
		go n.stealLoop()
	}
}

// Stop halts the background loops. The wrapped server is not shut down —
// that stays the caller's job, in its usual drain order.
func (n *Node) Stop() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	n.wg.Wait()
}

// Self returns this node's advertise URL.
func (n *Node) Self() string { return n.self }

// Ring exposes the hash ring (for tests and tooling).
func (n *Node) Ring() *Ring { return n.ring }

// selfDigest snapshots this node's own state for gossip.
func (n *Node) selfDigest() Digest {
	queued, busy, workers := n.srv.Backlog()
	return Digest{
		Peer:    n.self,
		Seq:     n.seq.Add(1),
		Ready:   n.srv.Ready(),
		Queued:  queued,
		Busy:    busy + int(n.stealBusy.Load()),
		Workers: workers,
	}
}

// owner resolves the peer that should run a key right now: the first
// healthy peer clockwise on the ring, falling back to self when the health
// view rules everyone out (serving locally beats refusing — worst case is a
// cache line materialising on a non-owner, which determinism makes
// harmless).
func (n *Node) owner(key string) string {
	if o, ok := n.ring.Owner(key, n.members.healthy); ok {
		return o
	}
	return n.self
}

// logf emits one operational log line if a logger is configured.
func (n *Node) logf(format string, args ...any) {
	if n.opts.Logf != nil {
		n.opts.Logf(format, args...)
	}
}

// rememberForward records id → owner so later lookups proxy correctly.
func (n *Node) rememberForward(id, owner string) {
	if id == "" {
		return
	}
	n.forwardMu.Lock()
	defer n.forwardMu.Unlock()
	if _, ok := n.forwarded[id]; !ok {
		n.forwardOrder = append(n.forwardOrder, id)
		if len(n.forwardOrder) > maxForwardedIDs {
			delete(n.forwarded, n.forwardOrder[0])
			n.forwardOrder = n.forwardOrder[1:]
		}
	}
	n.forwarded[id] = owner
}

// forwardTarget looks up where a job id was forwarded to.
func (n *Node) forwardTarget(id string) (string, bool) {
	n.forwardMu.Lock()
	defer n.forwardMu.Unlock()
	o, ok := n.forwarded[id]
	return o, ok
}

// gossipLoop heartbeats the full digest snapshot to every other peer each
// interval and merges what they answer (push-pull). With the small static
// memberships this cluster targets, all-to-all each round is cheaper than
// the convergence lag of random pairwise exchange.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.opts.GossipInterval)
	defer t.Stop()
	for {
		n.gossipOnce()
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
	}
}

// gossipOnce runs one heartbeat round, contacting every peer concurrently
// so one hung peer cannot delay news about the others.
func (n *Node) gossipOnce() {
	n.members.updateSelf(n.selfDigest())
	var wg sync.WaitGroup
	for _, p := range n.ring.Peers() {
		if p == n.self {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			resp, err := n.exchangeGossip(peer)
			if err != nil {
				// Silence is its own signal: the peer's digest stops
				// advancing and dead detection takes it from there.
				return
			}
			for _, d := range resp {
				n.members.merge(d)
			}
		}(p)
	}
	wg.Wait()
	n.gossipRounds.Add(1)
}

// ScatterSweep is the serve.Server scatter hook: it splits a multi-point
// sweep into per-point sub-sweeps and fans them across the healthy peers by
// each sub-key's ring owner. handled is false when scattering is not
// worthwhile (single point, or no healthy remote peer) — the server then
// runs the grid locally exactly as a single daemon would.
func (n *Node) ScatterSweep(ctx context.Context, spec *serve.SweepSpec, key string) ([]serve.SweepOutcome, bool, error) {
	return n.scatterSweep(ctx, spec, key)
}

// healthyWorkerTotal sums the reported worker pools of all alive peers, the
// scatter fan-out's concurrency budget.
func (n *Node) healthyWorkerTotal() (peers, workers int) {
	for _, v := range n.members.view() {
		if v.State == StateAlive {
			peers++
			if v.Workers > 0 {
				workers += v.Workers
			} else {
				workers++
			}
		}
	}
	return peers, workers
}
