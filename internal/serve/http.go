package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ccredf/scenario"
)

// DegradedHeader marks 503s caused by the circuit breaker's cache-only
// degraded mode (as opposed to drain or overload): the refusal is going to
// last the breaker cooldown, so a client holding other peer URLs should
// fail over immediately rather than back off and retry here.
const DegradedHeader = "X-CCR-Degraded"

// JobStatus is the wire form of a job record (GET /v1/jobs/{id}).
type JobStatus struct {
	ID          string    `json:"id"`
	Kind        string    `json:"kind"`
	State       State     `json:"state"`
	Key         string    `json:"key"`
	Cached      bool      `json:"cached,omitempty"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	WallMS      float64   `json:"wall_ms,omitempty"`
	// ResultURL and EventsURL point at the result bytes (once done) and the
	// live event stream (while queued/running).
	ResultURL string `json:"result_url,omitempty"`
	EventsURL string `json:"events_url,omitempty"`
}

func (s *Server) status(j *Job) JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID:          j.id,
		Kind:        j.kind,
		State:       j.state,
		Key:         j.key,
		Cached:      j.cached,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() && !j.finished.IsZero() {
		st.WallMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	j.mu.Unlock()
	switch st.State {
	case StateDone:
		st.ResultURL = "/v1/jobs/" + st.ID + "/result"
	case StateQueued, StateRunning:
		st.EventsURL = "/v1/jobs/" + st.ID + "/events"
	}
	return st
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a scenario (JSON body, ?timeout=30s)
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        job status (?wait=2s long-polls: answers
//	                            when the job ends, the wait runs out —
//	                            clamped to 10s — or the client leaves)
//	GET    /v1/jobs/{id}/result result bytes (deterministic JSON)
//	GET    /v1/jobs/{id}/events live protocol events (JSONL, or SSE when
//	                            Accept: text/event-stream)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	POST   /v1/sweeps           submit a sweep grid (JSON body)
//	POST   /v1/admission        stateless mixed-criticality admission
//	                            decision: connection set + candidate →
//	                            admit/refuse + shed list (synchronous)
//	GET    /healthz             liveness (200 while the process runs)
//	GET    /readyz              readiness: 503 while degraded (circuit
//	                            breaker open, cache-only) or draining
//	GET    /metrics             Prometheus text format
//
// Over-admission responses (429 queue-full, 429 rate-limited, 503
// degraded) carry a Retry-After header computed from queue depth, recent
// job latency or remaining breaker cooldown, so clients back off for a
// meaningful interval instead of a constant.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweep)
	mux.HandleFunc("POST /v1/admission", s.handleAdmission)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
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

// parseTimeout reads the optional ?timeout= duration query parameter.
func parseTimeout(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("timeout %q: %w", raw, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("timeout %q must be positive", raw)
	}
	return d, nil
}

// maxStatusWait clamps a status long-poll: each pending one holds a
// connection and a handler goroutine, so no request may hold them longer.
const maxStatusWait = 10 * time.Second

// StatusWait reads the optional ?wait= duration of a status request,
// clamped to the server's longest long-poll. Zero means answer at once.
func StatusWait(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("wait %q: %w", raw, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("wait %q must not be negative", raw)
	}
	return min(d, maxStatusWait), nil
}

// submitCode maps submission results to HTTP: 200 for a cache hit already
// done, 202 for an accepted (queued) job.
func submitCode(j *Job) int {
	if j.State() == StateDone {
		return http.StatusOK
	}
	return http.StatusAccepted
}

// retryAfterSeconds estimates how long a refused client should wait before
// resubmitting: the current backlog (queued + running jobs) divided across
// the worker pool, scaled by the mean measured job latency, clamped to
// [1, 60] seconds. With no latency history yet it assumes half a second.
func (s *Server) retryAfterSeconds() int {
	s.wallMu.Lock()
	mean := 0.0
	if s.wallCount > 0 {
		mean = s.wallSum / float64(s.wallCount)
	}
	s.wallMu.Unlock()
	if mean <= 0 {
		mean = 0.5
	}
	backlog := len(s.queue) + int(s.busy.Load()) + 1
	secs := int(math.Ceil(mean * float64(backlog) / float64(s.opts.Workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// setRetryAfter writes a Retry-After header of at least one second.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// allowClient applies the per-client token bucket to a submission; on
// refusal it writes the 429 (with the bucket's own refill time as
// Retry-After) and reports false.
func (s *Server) allowClient(w http.ResponseWriter, r *http.Request) bool {
	if s.limiter == nil {
		return true
	}
	ok, wait := s.limiter.allow(clientKey(r.RemoteAddr))
	if ok {
		return true
	}
	s.rateLimited.Add(1)
	setRetryAfter(w, wait)
	writeError(w, http.StatusTooManyRequests, "serve: rate limit exceeded")
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.allowClient(w, r) {
		return
	}
	timeout, err := parseTimeout(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	scen, err := scenario.Load(r.Body)
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "%v", err)
		return
	}
	j, err := s.SubmitScenario(scen, timeout)
	s.respondSubmission(w, j, err)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !s.allowClient(w, r) {
		return
	}
	timeout, err := parseTimeout(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var spec SweepSpec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "sweep: %v", err)
		return
	}
	spec.normalise()
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.SubmitSweep(&spec, timeout)
	s.respondSubmission(w, j, err)
}

// handleAdmission answers a stateless admission decision synchronously: it
// runs no simulation, so it bypasses the job queue and worker pool entirely
// (only the per-client rate limit applies).
func (s *Server) handleAdmission(w http.ResponseWriter, r *http.Request) {
	if !s.allowClient(w, r) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req AdmissionRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "admission: %v", err)
		return
	}
	res, err := EvaluateAdmission(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.admissionRequests.Add(1)
	if res.Admitted {
		s.admissionAdmitted.Add(1)
	} else {
		s.admissionRejected.Add(1)
	}
	s.admissionShed.Add(int64(len(res.Shed)))
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) respondSubmission(w http.ResponseWriter, j *Job, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		setRetryAfter(w, time.Duration(s.retryAfterSeconds())*time.Second)
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDegraded):
		// Come back once the breaker's cooldown can admit a probe — or, for
		// cluster-aware clients, go somewhere healthy right now: the
		// X-CCR-Degraded marker distinguishes "this peer is in cache-only
		// degraded mode" from a generic 503, so a multi-endpoint client
		// redirects immediately instead of backing off against a peer that
		// cannot serve it.
		wait := s.breaker.view().RetryAfter
		if wait <= 0 {
			wait = time.Second
		}
		setRetryAfter(w, wait)
		w.Header().Set(DegradedHeader, "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeJSON(w, submitCode(j), s.status(j))
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, s.status(j))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// handleStatus answers a job's status. With ?wait= it long-polls: the
// answer is held until the job ends, the wait runs out, the client leaves
// or the server closes, so a waiter learns of completion when it happens.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	wait, err := StatusWait(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-j.Done():
		case <-t.C:
		case <-r.Context().Done():
		case <-s.baseCtx.Done():
		}
		t.Stop()
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	b, ok := j.Result()
	if !ok {
		// 409: the resource exists but is not in a result-bearing state.
		writeError(w, http.StatusConflict, "job %s is %s, not done", j.ID(), j.State())
		return
	}
	// Serve the stored bytes verbatim: byte-identical across cache hits.
	w.Header().Set("Content-Type", "application/json")
	w.Write(b) //nolint:errcheck
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": r.PathValue("id"), "state": st})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	ch, unsubscribe := j.hub.subscribe()
	defer unsubscribe()

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)
	if canFlush {
		flusher.Flush()
	}
	for {
		select {
		case line, ok := <-ch:
			if !ok {
				return // job finished (or was already terminal): end of stream
			}
			if sse {
				// SSE data frame; the JSONL line already ends in \n, the
				// blank separator line follows.
				if _, err := fmt.Fprintf(w, "data: %s\n", line); err != nil {
					return
				}
			} else {
				if _, err := w.Write(line); err != nil {
					return
				}
			}
			if canFlush {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return // client went away
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady is the readiness probe, distinct from liveness: a daemon in
// cache-only degraded mode (circuit breaker open) or draining after
// SIGTERM is alive (/healthz 200) but should be rotated out of new-work
// routing (/readyz 503).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if v := s.breaker.view(); v.Degraded {
		if v.RetryAfter > 0 {
			setRetryAfter(w, v.RetryAfter)
		}
		w.Header().Set(DegradedHeader, "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded: circuit breaker %s after %d consecutive failure(s); serving cached results only\n",
			v.State, v.Consecutive)
		return
	}
	// The worst operating mode of the most recent mode-enabled simulation
	// rides along (header + payload) so fleet tooling can see overload
	// degradation without scraping /metrics. The first word stays "ready".
	if rank := s.lastMode.Load(); rank > 0 {
		name := [4]string{"", "normal", "degraded", "critical"}[rank]
		w.Header().Set("X-CCR-Mode", name)
		fmt.Fprintf(w, "ready mode=%s\n", name)
		return
	}
	fmt.Fprintln(w, "ready")
}
