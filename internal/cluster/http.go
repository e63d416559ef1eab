package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"ccredf/scenario"

	"ccredf/internal/serve"
)

// ForwardedHeader marks peer-to-peer traffic. A submission carrying it is
// always served locally — never re-forwarded — so a transient disagreement
// between two peers' health views can cost at most one extra hop, never a
// loop. (Determinism makes the resulting off-owner placement harmless.)
const ForwardedHeader = "X-CCR-Forwarded"

// gossipMsg is the push-pull gossip exchange body: the sender's full digest
// snapshot out, the receiver's back.
type gossipMsg struct {
	From    string   `json:"from"`
	Digests []Digest `json:"digests"`
}

// stealRequest asks a victim for one queued job under a lease.
type stealRequest struct {
	Lease time.Duration `json:"lease_ns"`
}

// stolenResult returns a stolen job's bytes (or failure) to its victim.
type stolenResult struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Result []byte `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Topology is the GET /cluster response: this peer's view of the ring.
type Topology struct {
	Self     string     `json:"self"`
	Engine   string     `json:"engine"`
	Replicas int        `json:"replicas"`
	Peers    []PeerView `json:"peers"`
}

// Handler wraps the serve API with the cluster plane:
//
//	POST /v1/jobs, /v1/sweeps    consistent-hash forwarded to the key's owner
//	GET/DELETE /v1/jobs/{id}...  proxied to the peer a forwarded job lives on;
//	                             a status long-poll (?wait=) gets the clamped
//	                             wait on top of ForwardTimeout, so it is
//	                             never cut into a 502
//	GET  /cluster                topology: peers, states, backlogs
//	POST /cluster/gossip         push-pull digest exchange (peer-to-peer)
//	POST /cluster/steal          hand one queued job to an idle peer
//	POST /cluster/stolen         accept a stolen job's result bytes
//	GET  /metrics                serve metrics + ccr_cluster_* appended
//
// Everything else falls through to the wrapped server unchanged.
func (n *Node) Handler() http.Handler {
	inner := n.srv.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", n.submitHandler(kindSim, inner))
	mux.HandleFunc("POST /v1/sweeps", n.submitHandler(kindSweep, inner))
	mux.HandleFunc("GET /v1/jobs/{id}", n.jobHandler(inner))
	mux.HandleFunc("GET /v1/jobs/{id}/result", n.jobHandler(inner))
	mux.HandleFunc("GET /v1/jobs/{id}/events", n.jobHandler(inner))
	mux.HandleFunc("DELETE /v1/jobs/{id}", n.jobHandler(inner))
	mux.HandleFunc("GET /cluster", n.handleTopology)
	mux.HandleFunc("POST /cluster/gossip", n.handleGossip)
	mux.HandleFunc("POST /cluster/steal", n.handleSteal)
	mux.HandleFunc("POST /cluster/stolen", n.handleStolen)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	mux.Handle("/", inner)
	return mux
}

// Job kinds, mirroring serve's internal names on the wire.
const (
	kindSim   = "sim"
	kindSweep = "sweep"
)

// submitHandler routes a submission to its cache key's ring owner. The key
// is computed here from the body exactly as the owner will compute it; a
// body that fails to parse is handed to the local server so the error
// response is byte-identical to single-daemon mode.
func (n *Node) submitHandler(kind string, inner http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(ForwardedHeader) != "" {
			inner.ServeHTTP(w, r) // one-hop rule: forwarded work runs here
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, n.srv.MaxBodyBytes()))
		if err != nil {
			writeError(w, http.StatusRequestEntityTooLarge, "cluster: request body: %v", err)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		key, ok := n.submissionKey(kind, body)
		if !ok {
			inner.ServeHTTP(w, r) // malformed: let the local server reject it
			return
		}
		owner := n.owner(key)
		if owner == n.self {
			inner.ServeHTTP(w, r)
			return
		}
		n.forwardSubmit(w, r, owner, body, inner)
	}
}

// submissionKey computes the content-addressed cache key a submission body
// will get, for routing. ok is false when the body does not parse — routing
// then defers to the local server's validation.
func (n *Node) submissionKey(kind string, body []byte) (string, bool) {
	switch kind {
	case kindSim:
		scen, err := scenario.Load(bytes.NewReader(body))
		if err != nil {
			return "", false
		}
		key, err := serve.ScenarioKey(scen)
		return key, err == nil
	case kindSweep:
		var sp serve.SweepSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sp); err != nil {
			return "", false
		}
		key, err := serve.SweepKey(&sp)
		return key, err == nil
	}
	return "", false
}

// forwardSubmit ships a submission to its owner and relays the response.
// If the owner is unreachable the submission is served locally instead —
// the health view was stale; availability beats placement, and determinism
// makes the misplaced cache line harmless.
func (n *Node) forwardSubmit(w http.ResponseWriter, r *http.Request, owner string, body []byte, inner http.Handler) {
	ctx, cancel := context.WithTimeout(r.Context(), n.opts.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "cluster: forward: %v", err)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set(ForwardedHeader, n.self)
	resp, err := n.peerClient.Do(req)
	if err != nil {
		n.forwardErrors.Add(1)
		n.logf("cluster: forward to %s failed (%v); serving locally", owner, err)
		r.Body = io.NopCloser(bytes.NewReader(body))
		inner.ServeHTTP(w, r)
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		n.forwardErrors.Add(1)
		writeError(w, http.StatusBadGateway, "cluster: forward to %s: reading response: %v", owner, err)
		return
	}
	n.forwards.Add(1)
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		var st serve.JobStatus
		if json.Unmarshal(respBody, &st) == nil {
			n.rememberForward(st.ID, owner)
		}
	}
	relayHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody) //nolint:errcheck // client gone on error
}

// jobHandler serves job lookups: local jobs go straight to the server;
// IDs this node forwarded are proxied to the peer holding the record.
// Unknown IDs also go to the local server, whose 404 tells a cluster-aware
// client to resubmit (a cache hit wherever the work already ran).
func (n *Node) jobHandler(inner http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, ok := n.srv.Job(id); ok {
			inner.ServeHTTP(w, r)
			return
		}
		if owner, ok := n.forwardTarget(id); ok && r.Header.Get(ForwardedHeader) == "" {
			n.proxyJob(w, r, owner)
			return
		}
		inner.ServeHTTP(w, r)
	}
}

// proxyJob relays one job-record request (status, result, events, cancel)
// to the peer that owns the record. Event streams are copied flush-by-flush
// with an untimed client so SSE keeps flowing. A status long-poll may
// rightly sit at the owner for its clamped wait, so its deadline is that
// wait plus ForwardTimeout.
func (n *Node) proxyJob(w http.ResponseWriter, r *http.Request, owner string) {
	n.proxies.Add(1)
	hc, ctx := n.peerClient, r.Context()
	if strings.HasSuffix(r.URL.Path, "/events") {
		hc = n.streamClient // SSE: no per-request deadline
	} else {
		budget := n.opts.ForwardTimeout
		if r.Method == http.MethodGet && !strings.HasSuffix(r.URL.Path, "/result") {
			if wait, err := serve.StatusWait(r); err == nil && wait > 0 {
				hc = n.streamClient // bounded by budget alone, not peerClient's timeout
				budget += wait
			}
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, owner+r.URL.RequestURI(), nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "cluster: proxy: %v", err)
		return
	}
	if accept := r.Header.Get("Accept"); accept != "" {
		req.Header.Set("Accept", accept)
	}
	req.Header.Set(ForwardedHeader, n.self)
	resp, err := hc.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, "cluster: proxy to %s: %v", owner, err)
		return
	}
	defer resp.Body.Close()
	relayHeaders(w, resp)
	w.WriteHeader(resp.StatusCode)
	copyFlush(w, resp.Body)
}

// relayHeaders copies the response headers that matter to clients.
func relayHeaders(w http.ResponseWriter, resp *http.Response) {
	for _, h := range []string{"Content-Type", "Retry-After", serve.DegradedHeader, "Cache-Control"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
}

// copyFlush streams src to w, flushing after every chunk so proxied SSE
// events arrive as they happen rather than when the stream ends.
func copyFlush(w http.ResponseWriter, src io.Reader) {
	f, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if f != nil {
				f.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handleTopology reports this peer's view of the cluster.
func (n *Node) handleTopology(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Topology{
		Self:     n.self,
		Engine:   serve.EngineVersion,
		Replicas: n.ring.replicas,
		Peers:    n.members.view(),
	})
}

// handleGossip merges a peer's digests and answers with ours (push-pull).
func (n *Node) handleGossip(w http.ResponseWriter, r *http.Request) {
	var msg gossipMsg
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&msg); err != nil {
		writeError(w, http.StatusBadRequest, "cluster: gossip: %v", err)
		return
	}
	for _, d := range msg.Digests {
		n.members.merge(d)
	}
	writeJSON(w, http.StatusOK, gossipMsg{From: n.self, Digests: n.members.snapshot()})
}

// handleSteal hands one queued job to a thief, or 204 when the queue is
// empty.
func (n *Node) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req stealRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<10)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "cluster: steal: %v", err)
		return
	}
	job, ok := n.srv.StealQueued(req.Lease)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	n.stealsServed.Add(1)
	writeJSON(w, http.StatusOK, job)
}

// handleStolen accepts a stolen job's result from a thief. accepted=false
// means the lease had already expired and the job was reclaimed — the
// thief's bytes are discarded, which determinism makes safe.
func (n *Node) handleStolen(w http.ResponseWriter, r *http.Request) {
	var res stolenResult
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&res); err != nil {
		writeError(w, http.StatusBadRequest, "cluster: stolen: %v", err)
		return
	}
	accepted := n.srv.CompleteStolen(res.ID, res.Key, res.Result, res.Error)
	writeJSON(w, http.StatusOK, map[string]bool{"accepted": accepted})
}

// handleMetrics appends the cluster series to the server's metrics page.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	n.srv.WriteMetrics(w)
	n.WriteMetrics(w)
}

// exchangeGossip runs one push-pull round against a peer.
func (n *Node) exchangeGossip(peer string) ([]Digest, error) {
	b, err := json.Marshal(gossipMsg{From: n.self, Digests: n.members.snapshot()})
	if err != nil {
		return nil, err
	}
	resp, err := n.gossipClient.Post(peer+"/cluster/gossip", "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
		return nil, fmt.Errorf("cluster: gossip with %s: HTTP %d", peer, resp.StatusCode)
	}
	var msg gossipMsg
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&msg); err != nil {
		return nil, err
	}
	return msg.Digests, nil
}

// requestSteal asks victim for one queued job. A nil job with nil error
// means the victim's queue was empty.
func (n *Node) requestSteal(victim string, lease time.Duration) (*serve.StolenJob, error) {
	b, err := json.Marshal(stealRequest{Lease: lease})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.opts.StealTimeout)
	defer cancel()
	resp, err := n.postJSON(ctx, victim+"/cluster/steal", b)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		var job serve.StolenJob
		if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&job); err != nil {
			return nil, err
		}
		return &job, nil
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
		return nil, fmt.Errorf("cluster: steal from %s: HTTP %d", victim, resp.StatusCode)
	}
}

// postStolenResult returns a stolen job's bytes to its victim.
func (n *Node) postStolenResult(victim, id, key string, result []byte, errMsg string) error {
	b, err := json.Marshal(stolenResult{ID: id, Key: key, Result: result, Error: errMsg})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.opts.StealTimeout)
	defer cancel()
	resp, err := n.postJSON(ctx, victim+"/cluster/stolen", b)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: stolen result to %s: HTTP %d", victim, resp.StatusCode)
	}
	return nil
}

// postJSON issues one deadline-bounded JSON POST on the unary peer client.
func (n *Node) postJSON(ctx context.Context, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return n.peerClient.Do(req)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort; the client is gone on error
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
