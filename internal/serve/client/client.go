// Package client is the principled retry path onto a ccr-served daemon or
// cluster: a small HTTP client wrapping the /v1 job API with bounded
// exponential backoff, full jitter, and first-class Retry-After handling —
// the header the server computes from queue depth, recent job latency and
// breaker cooldown. Retrying a submission is always safe: jobs are content-
// addressed, so a duplicate submit is a cache hit, never duplicate work.
//
// Against a cluster, NewMulti takes every peer URL. A transport failure
// rotates to the next endpoint, and a 503 carrying the X-CCR-Degraded
// marker (circuit breaker open, cache-only) fails over immediately instead
// of backing off against a peer that cannot serve new work. If a job is
// lost mid-await — its peer was SIGKILLed and the ID is unknown elsewhere —
// RunScenario/RunSweep resubmit the spec: completed work is already in the
// surviving peers' content-addressed caches, so only lost points re-run and
// the final bytes are identical.
//
// It backs ccr-sweep -remote, the cluster's peer-to-peer traffic, and is
// the reference for anything else that talks to the daemon.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ccredf/internal/serve"
)

// Options tunes the retry policy. Zero values select the noted defaults.
type Options struct {
	// HTTPClient is the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxAttempts bounds tries per request, first included (default 8).
	MaxAttempts int
	// BaseBackoff is the first retry delay (default 200ms); each further
	// retry doubles it up to MaxBackoff (default 10s). The actual sleep is
	// jittered uniformly over [d/2, d] to decorrelate a client fleet.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// PollInterval is the minimum spacing between Await's status requests
	// (default 200ms). Each request long-polls, so against a ccr-served
	// daemon Await sees completion when it happens; the floor only paces a
	// server that ignores ?wait= and answers at once.
	PollInterval time.Duration

	// Test seams: sleep must honour ctx; randFloat feeds the jitter.
	sleep     func(ctx context.Context, d time.Duration) error
	randFloat func() float64
}

func (o Options) withDefaults() Options {
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 8
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 200 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 10 * time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 200 * time.Millisecond
	}
	if o.sleep == nil {
		o.sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	if o.randFloat == nil {
		o.randFloat = rand.Float64
	}
	return o
}

// APIError is a non-retryable (or retry-exhausted) HTTP-level failure.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// Client talks to one daemon, or to any peer of a cluster (NewMulti).
// Safe for concurrent use.
type Client struct {
	endpoints []string
	cur       atomic.Int64 // index of the endpoint currently preferred
	opts      Options
}

// New builds a client for the daemon at base (e.g. "http://host:8080").
func New(base string, opts Options) *Client {
	return NewMulti([]string{base}, opts)
}

// NewMulti builds a client over several equivalent endpoints — typically
// every peer of a ccr-served cluster, any of which can accept any job. The
// first endpoint is preferred; transport failures and degraded-peer 503s
// rotate to the next.
func NewMulti(bases []string, opts Options) *Client {
	c := &Client{opts: opts.withDefaults()}
	for _, b := range bases {
		if b = strings.TrimRight(strings.TrimSpace(b), "/"); b != "" {
			c.endpoints = append(c.endpoints, b)
		}
	}
	if len(c.endpoints) == 0 {
		c.endpoints = []string{""}
	}
	return c
}

// base returns the currently preferred endpoint.
func (c *Client) base() string {
	return c.endpoints[int(c.cur.Load())%len(c.endpoints)]
}

// rotate moves to the next endpoint; a no-op with a single one.
func (c *Client) rotate() {
	if len(c.endpoints) > 1 {
		c.cur.Add(1)
	}
}

// Endpoints returns the configured endpoint list.
func (c *Client) Endpoints() []string { return append([]string(nil), c.endpoints...) }

// retryableStatus: the server's over-admission and degradation responses
// plus gateway-layer flakes. Deterministic failures (4xx, 500) are not
// retried — resubmitting an invalid scenario can never succeed.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// parseRetryAfter reads a Retry-After header: delta-seconds or HTTP-date.
func parseRetryAfter(h string) (time.Duration, bool) {
	if h == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// backoff returns the jittered delay for retry n (0-based): full jitter
// over the top half of an exponentially growing, capped window.
func (c *Client) backoff(n int) time.Duration {
	d := c.opts.BaseBackoff << n
	if d <= 0 || d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	half := float64(d) / 2
	return time.Duration(half + c.opts.randFloat()*half)
}

type response struct {
	status int
	body   []byte
	header http.Header
}

// do runs one request with retries. body may be re-sent on every attempt.
// Non-retryable HTTP statuses are returned to the caller for decoding, so
// only transport failures and retry exhaustion surface as errors here.
//
// With multiple endpoints, a transport failure rotates to the next peer
// before the retry, and a degraded-peer 503 (X-CCR-Degraded) rotates and
// retries immediately — the refusal will last the breaker cooldown there,
// while a healthy peer can take the job right now.
func (c *Client) do(ctx context.Context, method, path string, body []byte, contentType string) (*response, error) {
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			if d := c.delay(attempt-1, lastErr); d > 0 {
				if err := c.opts.sleep(ctx, d); err != nil {
					return nil, err
				}
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base()+path, rd)
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.opts.HTTPClient.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			c.rotate() // the peer may be gone; try the next one
			continue
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			c.rotate()
			continue
		}
		if retryableStatus(resp.StatusCode) {
			lastErr = &retryState{
				status:     resp.StatusCode,
				message:    errorMessage(b),
				retryAfter: resp.Header.Get("Retry-After"),
				degraded:   resp.Header.Get(serve.DegradedHeader) != "",
			}
			if resp.Header.Get(serve.DegradedHeader) != "" {
				c.rotate()
			}
			continue
		}
		return &response{status: resp.StatusCode, body: b, header: resp.Header}, nil
	}
	if rs, ok := lastErr.(*retryState); ok {
		return nil, fmt.Errorf("client: %s %s: giving up after %d attempts: %w",
			method, path, c.opts.MaxAttempts, &APIError{Status: rs.status, Message: rs.message})
	}
	return nil, fmt.Errorf("client: %s %s: giving up after %d attempts: %w", method, path, c.opts.MaxAttempts, lastErr)
}

// retryState carries the last retryable response between attempts.
type retryState struct {
	status     int
	message    string
	retryAfter string
	degraded   bool
}

func (r *retryState) Error() string {
	return fmt.Sprintf("status %d: %s", r.status, r.message)
}

// delay picks the next sleep: zero for a degraded 503 when another endpoint
// is available (do already rotated — retry there immediately), the server's
// Retry-After when present (trusted — it is computed from real queue
// state), jittered backoff otherwise.
func (c *Client) delay(retry int, lastErr error) time.Duration {
	if rs, ok := lastErr.(*retryState); ok {
		if rs.degraded && len(c.endpoints) > 1 {
			return 0
		}
		if d, ok := parseRetryAfter(rs.retryAfter); ok {
			// A sliver of jitter keeps synchronized clients apart even
			// when the server names the same instant for all of them.
			return d + time.Duration(c.opts.randFloat()*float64(100*time.Millisecond))
		}
	}
	return c.backoff(retry)
}

// errorMessage extracts the server's {"error": ...} body, falling back to
// the raw bytes.
func errorMessage(b []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(b))
}

// decodeStatus decodes a submission or status response, mapping error
// statuses to *APIError.
func decodeStatus(res *response, want ...int) (serve.JobStatus, error) {
	for _, w := range want {
		if res.status == w {
			var st serve.JobStatus
			if err := json.Unmarshal(res.body, &st); err != nil {
				return serve.JobStatus{}, fmt.Errorf("client: decode job status: %w", err)
			}
			return st, nil
		}
	}
	return serve.JobStatus{}, &APIError{Status: res.status, Message: errorMessage(res.body)}
}

// SubmitScenario posts a scenario JSON body (?timeout= when timeout > 0).
func (c *Client) SubmitScenario(ctx context.Context, scenarioJSON []byte, timeout time.Duration) (serve.JobStatus, error) {
	path := "/v1/jobs"
	if timeout > 0 {
		path += "?timeout=" + url.QueryEscape(timeout.String())
	}
	res, err := c.do(ctx, http.MethodPost, path, scenarioJSON, "application/json")
	if err != nil {
		return serve.JobStatus{}, err
	}
	return decodeStatus(res, http.StatusOK, http.StatusAccepted)
}

// SubmitSweep posts a sweep spec; the server normalises and validates it.
func (c *Client) SubmitSweep(ctx context.Context, spec *serve.SweepSpec, timeout time.Duration) (serve.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.JobStatus{}, err
	}
	path := "/v1/sweeps"
	if timeout > 0 {
		path += "?timeout=" + url.QueryEscape(timeout.String())
	}
	res, err := c.do(ctx, http.MethodPost, path, body, "application/json")
	if err != nil {
		return serve.JobStatus{}, err
	}
	return decodeStatus(res, http.StatusOK, http.StatusAccepted)
}

// Status fetches a job's current state.
func (c *Client) Status(ctx context.Context, id string) (serve.JobStatus, error) {
	return c.status(ctx, id, 0)
}

// status fetches a job's state; with wait > 0 the server holds the answer
// until the job ends or wait runs out (GET ?wait=).
func (c *Client) status(ctx context.Context, id string, wait time.Duration) (serve.JobStatus, error) {
	path := "/v1/jobs/" + url.PathEscape(id)
	if wait > 0 {
		path += "?wait=" + wait.String()
	}
	res, err := c.do(ctx, http.MethodGet, path, nil, "")
	if err != nil {
		return serve.JobStatus{}, err
	}
	return decodeStatus(res, http.StatusOK)
}

// Result fetches a done job's result bytes (verbatim, byte-identical to
// what the simulation produced).
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	res, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil, "")
	if err != nil {
		return nil, err
	}
	if res.status != http.StatusOK {
		return nil, &APIError{Status: res.status, Message: errorMessage(res.body)}
	}
	return res.body, nil
}

// Cancel cancels a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	res, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, "")
	if err != nil {
		return err
	}
	if res.status != http.StatusOK {
		return &APIError{Status: res.status, Message: errorMessage(res.body)}
	}
	return nil
}

// Ready probes /readyz once (no retries — readiness is a point-in-time
// question). A nil error means the daemon is accepting new work.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base()+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(b))}
	}
	return nil
}

// awaitWait is how long each of Await's status requests asks the server to
// hold a non-terminal answer. The server answers as soon as the job ends,
// so this bounds only how long one request sits idle, well inside common
// client and proxy timeouts.
const awaitWait = time.Second

// Await blocks until a job reaches a terminal state. Each status request
// long-polls, so completion is seen within a scheduler tick of the job
// ending; requests are spaced at least PollInterval apart.
func (c *Client) Await(ctx context.Context, id string) (serve.JobStatus, error) {
	wait := awaitWait
	if t := c.opts.HTTPClient.Timeout; t > 0 && wait > t/2 {
		wait = t / 2 // a long-poll must end well before the transport gives up
	}
	for {
		sent := time.Now()
		st, err := c.status(ctx, id, wait)
		if err != nil {
			return serve.JobStatus{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		if rest := c.opts.PollInterval - time.Since(sent); rest > 0 {
			if err := c.opts.sleep(ctx, rest); err != nil {
				return serve.JobStatus{}, err
			}
		}
	}
}

// resubmitAttempts bounds how many times Run* resubmits a job whose record
// was lost (its peer died between submission and result). Work already done
// is in the cluster's content-addressed caches, so each resubmission only
// pays for what was actually lost.
const resubmitAttempts = 4

// lostJob reports whether an await/fetch failure means the job record is
// gone rather than the job having deterministically failed: the ID is
// unknown (404 — the peer holding it was killed and we rotated elsewhere)
// or the connection died and retries were exhausted. Both are cured by
// resubmitting the content-addressed spec.
func lostJob(err error) bool {
	var api *APIError
	if errors.As(err, &api) {
		return api.Status == http.StatusNotFound || retryableStatus(api.Status)
	}
	return true // transport-level exhaustion
}

// run drives one submission to its result bytes.
func (c *Client) run(ctx context.Context, st serve.JobStatus, err error) (serve.JobStatus, []byte, error) {
	if err != nil {
		return serve.JobStatus{}, nil, err
	}
	if !st.State.Terminal() {
		if st, err = c.Await(ctx, st.ID); err != nil {
			return serve.JobStatus{}, nil, err
		}
	}
	if st.State != serve.StateDone {
		return st, nil, fmt.Errorf("client: job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	b, err := c.Result(ctx, st.ID)
	return st, b, err
}

// runResilient is run with whole-job resubmission: when the job is lost
// mid-flight (peer SIGKILLed, ID unknown on the survivors) the spec is
// submitted again — safe by idempotence, cheap by content-addressing.
func (c *Client) runResilient(ctx context.Context, submit func() (serve.JobStatus, error)) (serve.JobStatus, []byte, error) {
	var lastErr error
	for attempt := 0; attempt < resubmitAttempts; attempt++ {
		if ctx.Err() != nil {
			return serve.JobStatus{}, nil, ctx.Err()
		}
		if attempt > 0 {
			c.rotate()
		}
		st, err := submit()
		if err != nil {
			if !lostJob(err) {
				return serve.JobStatus{}, nil, err
			}
			lastErr = err
			continue
		}
		st, b, err := c.run(ctx, st, nil)
		if err == nil {
			return st, b, nil
		}
		if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
			return serve.JobStatus{}, nil, err
		}
		if st.State.Terminal() && st.State != serve.StateDone {
			// The job genuinely ended failed/cancelled: deterministic — a
			// resubmission would fail identically.
			return st, nil, err
		}
		if !lostJob(err) {
			return st, nil, err
		}
		lastErr = err
	}
	return serve.JobStatus{}, nil, fmt.Errorf("client: giving up after %d submissions: %w", resubmitAttempts, lastErr)
}

// RunScenario submits a scenario and blocks until its result is available
// (or the job fails, or ctx ends). A cache hit returns immediately; a job
// lost to a dead peer is resubmitted to a surviving one.
func (c *Client) RunScenario(ctx context.Context, scenarioJSON []byte, timeout time.Duration) (serve.JobStatus, []byte, error) {
	return c.runResilient(ctx, func() (serve.JobStatus, error) {
		return c.SubmitScenario(ctx, scenarioJSON, timeout)
	})
}

// RunSweep submits a sweep spec and blocks until its result is available,
// resubmitting if the job is lost to a dead peer.
func (c *Client) RunSweep(ctx context.Context, spec *serve.SweepSpec, timeout time.Duration) (serve.JobStatus, []byte, error) {
	return c.runResilient(ctx, func() (serve.JobStatus, error) {
		return c.SubmitSweep(ctx, spec, timeout)
	})
}
