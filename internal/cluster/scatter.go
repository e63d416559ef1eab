package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ccredf/internal/runner"
	"ccredf/internal/serve"
	"ccredf/internal/serve/client"
	"ccredf/internal/sweep"
)

// scatterAttempts bounds how many times one grid point is retried against
// (re-resolved) owners before the coordinator runs it locally. Each attempt
// re-reads the health view, so a point stuck on a dying peer lands on the
// failover owner within a gossip round.
const scatterAttempts = 3

// scatterSweep fans a sweep grid across the cluster. Each grid point becomes
// a single-point sub-sweep — the only decomposition a cartesian SweepSpec
// can express — with its own content-addressed key, submitted to that key's
// ring owner. Points this node owns run in-process through the local cache
// (never HTTP-to-self: with one worker the sweep holding the slot would
// deadlock waiting for itself). The stitched result is byte-identical to a
// local run because each point's wire form survives the sub-sweep JSON
// round trip exactly.
func (n *Node) scatterSweep(ctx context.Context, spec *serve.SweepSpec, key string) ([]serve.SweepOutcome, bool, error) {
	pts := spec.Grid()
	if len(pts) < 2 {
		return nil, false, nil // single point: scattering is pure overhead
	}
	alivePeers, workerTotal := n.healthyWorkerTotal()
	if alivePeers < 2 {
		return nil, false, nil // alone (or isolated): run locally
	}
	conc := workerTotal
	if conc < 2 {
		conc = 2
	}
	if conc > 64 {
		conc = 64
	}
	n.logf("cluster: scattering sweep %.12s…: %d points across %d peers (concurrency %d)",
		key, len(pts), alivePeers, conc)

	type pointResult struct {
		out serve.SweepOutcome
		err error
	}
	results, err := runner.MapCtx(ctx, len(pts), conc, func(i int) pointResult {
		out, err := n.runPoint(ctx, spec, pts[i])
		return pointResult{out: out, err: err}
	})
	if err != nil {
		return nil, true, err // sweep cancelled or timed out
	}
	outcomes := make([]serve.SweepOutcome, len(results))
	for i, r := range results {
		if r.err != nil {
			return nil, true, r.err
		}
		outcomes[i] = r.out
	}
	n.scatteredPoints.Add(int64(len(pts)))
	return outcomes, true, nil
}

// runPoint executes one grid point via its owning peer, falling back to
// local execution when the cluster cannot be reached. Only context
// cancellation aborts the sweep; an engine-level failure comes back in the
// point's Error field, exactly as sweep.RunCtx records it for a local grid.
func (n *Node) runPoint(ctx context.Context, spec *serve.SweepSpec, pt sweep.Point) (serve.SweepOutcome, error) {
	sub := spec.PointSpec(pt)
	subKey, err := serve.SweepKey(sub)
	if err != nil {
		return serve.SweepOutcome{}, err
	}
	for attempt := 0; attempt < scatterAttempts; attempt++ {
		if ctx.Err() != nil {
			return serve.SweepOutcome{}, ctx.Err()
		}
		owner := n.owner(subKey)
		if owner == n.self {
			break // ours: run in-process below
		}
		out, err := n.runPointRemote(ctx, owner, sub, subKey)
		if err == nil {
			return out, nil
		}
		if ctx.Err() != nil {
			return serve.SweepOutcome{}, ctx.Err()
		}
		// The owner failed mid-flight; the next attempt re-resolves against
		// the (by then updated) health view, so the point fails over.
	}
	out, err := n.runPointLocal(ctx, sub, subKey)
	if err != nil {
		if ctx.Err() != nil {
			return serve.SweepOutcome{}, ctx.Err()
		}
		// Same contract as a local grid: the engine's error is the point's
		// result, not the sweep's.
		return serve.SweepOutcome{Outcome: sweep.Outcome{Point: pt}, Error: err.Error()}, nil
	}
	return out, nil
}

// scatterClients builds one jobs-API client per remote peer for scattered
// points. They share the peer client's transport, so connections are
// reused across points, and every request is marked forwarded: the owner
// runs the point itself even if its health view names another owner
// (the one-hop rule), and answers the long-poll for its own job record.
func (n *Node) scatterClients() map[string]*client.Client {
	next := n.peerClient.Transport
	if next == nil {
		next = http.DefaultTransport
	}
	hc := &http.Client{Timeout: n.peerClient.Timeout, Transport: markForwarded{from: n.self, next: next}}
	clients := make(map[string]*client.Client)
	for _, p := range n.ring.Peers() {
		if p != n.self {
			clients[p] = client.New(p, client.Options{
				HTTPClient:  hc,
				MaxAttempts: 2, // failover beats retrying a struggling owner
				BaseBackoff: 100 * time.Millisecond,
				MaxBackoff:  time.Second,
			})
		}
	}
	return clients
}

// markForwarded stamps the one-hop marker on every request it carries.
type markForwarded struct {
	from string
	next http.RoundTripper
}

func (m markForwarded) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context()) // a RoundTripper must not modify its request
	r.Header.Set(ForwardedHeader, m.from)
	return m.next.RoundTrip(r)
}

// runPointRemote runs one sub-sweep on a remote owner over the ordinary
// jobs API and decodes the single point out of the result.
func (n *Node) runPointRemote(ctx context.Context, owner string, sub *serve.SweepSpec, subKey string) (serve.SweepOutcome, error) {
	c, ok := n.scatter[owner]
	if !ok {
		return serve.SweepOutcome{}, fmt.Errorf("cluster: scatter owner %s is not a peer", owner)
	}
	_, body, err := c.RunSweep(ctx, sub, 0)
	if err != nil {
		return serve.SweepOutcome{}, err
	}
	return decodeSinglePoint(body, subKey)
}

// runPointLocal runs one sub-sweep on this peer's own cache and engine.
func (n *Node) runPointLocal(ctx context.Context, sub *serve.SweepSpec, subKey string) (serve.SweepOutcome, error) {
	body, err := n.srv.RunSubSweep(ctx, sub, subKey)
	if err != nil {
		return serve.SweepOutcome{}, err
	}
	return decodeSinglePoint(body, subKey)
}

// decodeSinglePoint extracts the lone point from a sub-sweep result,
// checking the key (engine-version agreement) and the point count.
func decodeSinglePoint(body []byte, wantKey string) (serve.SweepOutcome, error) {
	var res serve.SweepResult
	if err := json.Unmarshal(body, &res); err != nil {
		return serve.SweepOutcome{}, fmt.Errorf("cluster: sub-sweep result: %w", err)
	}
	if res.Key != wantKey {
		return serve.SweepOutcome{}, fmt.Errorf("cluster: sub-sweep key mismatch (got %.12s…, want %.12s…): engine versions differ", res.Key, wantKey)
	}
	if len(res.Points) != 1 {
		return serve.SweepOutcome{}, fmt.Errorf("cluster: sub-sweep returned %d points, want 1", len(res.Points))
	}
	return res.Points[0], nil
}
