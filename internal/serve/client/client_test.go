package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccredf/internal/serve"
)

// recordedSleeps swaps the client's sleep seam for an instant recorder, so
// retry pacing is asserted without wall-clock delay.
func recordedSleeps(opts *Options) *[]time.Duration {
	var sleeps []time.Duration
	opts.sleep = func(ctx context.Context, d time.Duration) error {
		sleeps = append(sleeps, d)
		return ctx.Err()
	}
	return &sleeps
}

func jobStatusJSON(t *testing.T, st serve.JobStatus) []byte {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal status: %v", err)
	}
	return b
}

// TestRetryHonoursRetryAfter: two 503s carrying Retry-After: 2, then
// success. The client must sleep the server-stated two seconds (plus at
// most the 100ms anti-thundering-herd jitter), not its own backoff curve.
func TestRetryHonoursRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"degraded"}`)
			return
		}
		w.Write(jobStatusJSON(t, serve.JobStatus{ID: "j1", State: serve.StateDone}))
	}))
	defer ts.Close()

	opts := Options{randFloat: func() float64 { return 0.5 }}
	sleeps := recordedSleeps(&opts)
	c := New(ts.URL, opts)

	st, err := c.Status(context.Background(), "j1")
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if st.ID != "j1" || st.State != serve.StateDone {
		t.Fatalf("unexpected status %+v", st)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("expected 3 attempts, got %d", got)
	}
	if len(*sleeps) != 2 {
		t.Fatalf("expected 2 sleeps, got %v", *sleeps)
	}
	for _, d := range *sleeps {
		if d < 2*time.Second || d > 2*time.Second+100*time.Millisecond {
			t.Fatalf("sleep %v outside Retry-After window [2s, 2.1s]", d)
		}
	}
}

// TestBackoffGrowsExponentially: without Retry-After the delays follow the
// jittered doubling curve. With randFloat pinned to 1.0, sleep n is exactly
// BaseBackoff<<n, capped at MaxBackoff.
func TestBackoffGrowsExponentially(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer ts.Close()

	opts := Options{
		MaxAttempts: 5,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  400 * time.Millisecond,
		randFloat:   func() float64 { return 1.0 },
	}
	sleeps := recordedSleeps(&opts)
	c := New(ts.URL, opts)

	_, err := c.Status(context.Background(), "j1")
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("expected wrapped 502 APIError, got %v", err)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 400 * time.Millisecond}
	if len(*sleeps) != len(want) {
		t.Fatalf("expected %d sleeps, got %v", len(want), *sleeps)
	}
	for i, d := range *sleeps {
		if d != want[i] {
			t.Fatalf("sleep[%d] = %v, want %v (full curve %v)", i, d, want[i], *sleeps)
		}
	}
}

// TestNoRetryOnBadRequest: deterministic 4xx failures surface immediately
// as APIError — resubmitting an invalid scenario can never succeed.
func TestNoRetryOnBadRequest(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"scenario: nodes must be even"}`)
	}))
	defer ts.Close()

	opts := Options{}
	sleeps := recordedSleeps(&opts)
	c := New(ts.URL, opts)

	_, err := c.SubmitScenario(context.Background(), []byte(`{}`), 0)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("expected APIError, got %v", err)
	}
	if apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Message, "nodes must be even") {
		t.Fatalf("unexpected APIError %+v", apiErr)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("400 must not be retried; server saw %d calls", got)
	}
	if len(*sleeps) != 0 {
		t.Fatalf("400 must not sleep; got %v", *sleeps)
	}
}

// TestNoRetryOnInternalError: a 500 is treated as deterministic too.
func TestNoRetryOnInternalError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(ts.URL, Options{})
	_, err := c.Status(context.Background(), "j1")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("expected immediate 500 APIError, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("500 must not be retried; server saw %d calls", got)
	}
}

// TestRetryOnTransportError: a connection that dies mid-flight is retried;
// the request body is re-sent intact on the next attempt.
func TestRetryOnTransportError(t *testing.T) {
	var calls atomic.Int64
	var lastBody atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b := make([]byte, r.ContentLength)
		r.Body.Read(b) //nolint:errcheck
		lastBody.Store(string(b))
		if calls.Add(1) == 1 {
			// Kill the connection without writing a response.
			hj, _ := w.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		w.Write(jobStatusJSON(t, serve.JobStatus{ID: "j9", State: serve.StateQueued}))
	}))
	defer ts.Close()

	opts := Options{}
	recordedSleeps(&opts)
	c := New(ts.URL, opts)

	st, err := c.SubmitScenario(context.Background(), []byte(`{"nodes":8}`), 0)
	if err != nil {
		t.Fatalf("SubmitScenario: %v", err)
	}
	if st.ID != "j9" {
		t.Fatalf("unexpected status %+v", st)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("expected 2 attempts, got %d", got)
	}
	if got := lastBody.Load().(string); got != `{"nodes":8}` {
		t.Fatalf("retried body mismatch: %q", got)
	}
}

// TestContextCancelStopsRetries: ctx cancellation wins over further
// attempts even while the server keeps refusing.
func TestContextCancelStopsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{sleep: func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}}
	c := New(ts.URL, opts)
	_, err := c.Status(ctx, "j1")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

func testScenario(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{
		"nodes": 8,
		"seed": %d,
		"horizon_slots": 5000,
		"connections": [
			{"src": 0, "dests": [4], "period_slots": 10, "slots": 1}
		],
		"poisson": [
			{"node": 1, "mean_interarrival_slots": 12, "slots": 1, "rel_deadline_slots": 200}
		]
	}`, seed))
}

// newLiveService runs a real serve.Server behind httptest and returns a
// fast-polling client pointed at it.
func newLiveService(t *testing.T) *Client {
	t.Helper()
	srv := serve.New(serve.Options{Workers: 2, BreakerThreshold: -1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return New(ts.URL, Options{PollInterval: 5 * time.Millisecond})
}

// TestRunScenarioEndToEnd drives a real server: submit, await, fetch
// result; a resubmission is a cache hit with byte-identical result.
func TestRunScenarioEndToEnd(t *testing.T) {
	c := newLiveService(t)
	ctx := context.Background()

	st, res, err := c.RunScenario(ctx, testScenario(1), 30*time.Second)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if st.State != serve.StateDone || len(res) == 0 {
		t.Fatalf("unexpected outcome: state=%s len=%d", st.State, len(res))
	}

	st2, res2, err := c.RunScenario(ctx, testScenario(1), 30*time.Second)
	if err != nil {
		t.Fatalf("RunScenario (resubmit): %v", err)
	}
	if !st2.Cached {
		t.Fatalf("resubmission should be a cache hit: %+v", st2)
	}
	if !bytes.Equal(res, res2) {
		t.Fatal("cache hit result is not byte-identical")
	}

	if err := c.Ready(ctx); err != nil {
		t.Fatalf("Ready: %v", err)
	}
}

// TestRunSweepEndToEnd drives a sweep through the retrying client.
func TestRunSweepEndToEnd(t *testing.T) {
	c := newLiveService(t)
	spec := &serve.SweepSpec{
		Nodes:        []int{4},
		Loads:        []float64{0.3},
		Seeds:        []uint64{1, 2},
		HorizonSlots: 3000,
	}
	st, res, err := c.RunSweep(context.Background(), spec, 30*time.Second)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("sweep ended %s: %s", st.State, st.Error)
	}
	var sr serve.SweepResult
	if err := json.Unmarshal(res, &sr); err != nil {
		t.Fatalf("decode sweep result: %v", err)
	}
	if len(sr.Points) != 2 {
		t.Fatalf("expected 2 sweep points, got %d", len(sr.Points))
	}
}

// TestRunScenarioFailedJob: a failed job surfaces its error, not result
// bytes.
func TestRunScenarioFailedJob(t *testing.T) {
	c := newLiveService(t)
	// Valid JSON but an invalid scenario is rejected with 400 at submit.
	_, _, err := c.RunScenario(context.Background(), []byte(`{"nodes": 3}`), 0)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("expected 400 APIError, got %v", err)
	}
}

// TestAwaitLongPolls: against a real server, Await learns that a job which
// runs about 300 ms has ended from one or two status requests, however
// short PollInterval is.
func TestAwaitLongPolls(t *testing.T) {
	srv := serve.New(serve.Options{Workers: 1, ChunkSlots: 64, BreakerThreshold: -1})
	var polls atomic.Int64
	var waits []string
	var mu sync.Mutex
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.Count(r.URL.Path, "/") == 3 {
			polls.Add(1)
			mu.Lock()
			waits = append(waits, r.URL.Query().Get("wait"))
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c := New(ts.URL, Options{PollInterval: time.Millisecond})
	ctx := context.Background()

	// An unbounded run cut by its own timeout: it ends, failed, after ~300 ms.
	long := []byte(strings.Replace(string(testScenario(9)), `"horizon_slots": 5000`, `"horizon_slots": 500000000`, 1))
	st, err := c.SubmitScenario(ctx, long, 300*time.Millisecond)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = c.Await(ctx, st.ID)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	if st.State != serve.StateFailed {
		t.Fatalf("job ended %s (%s), want failed by its timeout", st.State, st.Error)
	}
	if n := polls.Load(); n < 1 || n > 2 {
		t.Fatalf("Await issued %d status requests for a ~300 ms job, want 1 or 2", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, w := range waits {
		if w != awaitWait.String() {
			t.Fatalf("status request carried wait=%q, want %q", w, awaitWait)
		}
	}
}

// TestAwaitPacesServerIgnoringWait: a server that ignores ?wait= and
// answers "running" at once is polled no faster than PollInterval.
func TestAwaitPacesServerIgnoringWait(t *testing.T) {
	const running = 4
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		state := serve.StateRunning
		if calls.Add(1) > running {
			state = serve.StateDone
		}
		w.Write(jobStatusJSON(t, serve.JobStatus{ID: "j1", State: state}))
	}))
	defer ts.Close()

	const poll = 300 * time.Millisecond
	opts := Options{PollInterval: poll}
	sleeps := recordedSleeps(&opts)
	st, err := New(ts.URL, opts).Await(context.Background(), "j1")
	if err != nil || st.State != serve.StateDone {
		t.Fatalf("Await: %+v, %v", st, err)
	}
	if got := calls.Load(); got != running+1 {
		t.Fatalf("%d status requests, want %d", got, running+1)
	}
	if len(*sleeps) != running {
		t.Fatalf("sleeps %v, want one per non-terminal answer (%d)", *sleeps, running)
	}
	for _, d := range *sleeps {
		// Each sleep is the rest of the interval after an instant answer.
		if d <= poll-200*time.Millisecond || d > poll {
			t.Fatalf("sleep %v, want just under PollInterval %v", d, poll)
		}
	}
}
