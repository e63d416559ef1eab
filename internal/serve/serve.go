// Package serve is the simulation-as-a-service core behind cmd/ccr-served:
// a bounded job queue feeding a worker pool of deterministic simulations, a
// content-addressed LRU result cache, live protocol-event streaming, and a
// Prometheus-style operational surface — with no dependencies outside the
// standard library.
//
// The shape mirrors the rest of the codebase: each job is one strictly
// single-threaded, fully deterministic simulation; all parallelism lives
// *across* jobs. Determinism is what makes the cache sound — a result is
// addressed by the canonical hash of (scenario, seed, engine version), and
// equal keys guarantee byte-identical result bytes, so repeated submissions
// of the same scenario are served from memory without re-simulating.
//
// Lifecycle: POST /v1/jobs → queued → running → done|failed|cancelled.
// Cancellation (DELETE /v1/jobs/{id}) propagates through a per-job
// context.Context; running simulations advance in bounded slot chunks and
// poll the context between chunks, so a cancel frees the worker slot
// promptly. Graceful shutdown closes intake, drains the queue and waits for
// workers (Shutdown); Close cancels everything immediately.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccredf"
	"ccredf/scenario"

	"ccredf/internal/network"
	"ccredf/internal/serve/journal"
	"ccredf/internal/sweep"
)

// State is a job's lifecycle phase.
type State string

// Job states. queued → running → done|failed|cancelled; cancellation can
// also strike a job while it is still queued.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job kinds.
const (
	kindSim   = "sim"
	kindSweep = "sweep"
)

// Submission errors.
var (
	// ErrQueueFull is returned when the bounded queue cannot accept another
	// job; HTTP maps it to 429 so clients back off.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrClosed is returned once the server has stopped accepting work.
	ErrClosed = errors.New("serve: server closed")
	// ErrDegraded is returned for cache-missing submissions while the
	// circuit breaker is open: the engine has failed repeatedly and the
	// server is serving cached results only; HTTP maps it to 503.
	ErrDegraded = errors.New("serve: degraded (circuit breaker open), serving cached results only")
)

// Options configures a Server. Zero values select the defaults noted on
// each field.
type Options struct {
	// Workers is the simulation worker pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs waiting to run (default 64).
	// Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// CacheBytes is the result cache budget (default 64 MiB; < 0 disables).
	CacheBytes int64
	// DefaultTimeout applies to jobs submitted without one (default 0 = no
	// timeout).
	DefaultTimeout time.Duration
	// ChunkSlots is the cancellation granularity: a running simulation polls
	// its context every ChunkSlots slot periods (default 512).
	ChunkSlots int64
	// MaxBodyBytes bounds request bodies accepted by the HTTP layer
	// (default 1 MiB).
	MaxBodyBytes int64
	// MaxJobs bounds retained job records; the oldest terminal jobs are
	// forgotten beyond it (default 4096).
	MaxJobs int
	// Journal, when non-nil, makes the server crash-safe: every accepted
	// submission is journalled (fsync) before it is queued, every terminal
	// state is journalled when the job ends, and New replays the journal's
	// recovery state — incomplete jobs are re-enqueued under their original
	// IDs and finished results are restored into the cache.
	Journal *journal.Journal
	// BreakerThreshold is the consecutive-failure count (panics included)
	// that trips the circuit breaker into cache-only degraded mode
	// (default 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting a
	// half-open probe job (default 30s).
	BreakerCooldown time.Duration
	// RatePerSec enables per-client token-bucket admission on the
	// submission endpoints (default 0 = unlimited).
	RatePerSec float64
	// RateBurst is the token-bucket depth (default 2×RatePerSec, min 1).
	RateBurst int
	// IDPrefix prepends every job ID (e.g. "a1b2c3d4-" in cluster mode, so
	// IDs are unique across peers and a forwarded ID can never collide with
	// a local one). Empty — the single-daemon default — keeps the classic
	// "j%06d" IDs byte-identical.
	IDPrefix string
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 64 << 20
	}
	if o.ChunkSlots <= 0 {
		o.ChunkSlots = 512
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 4096
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 30 * time.Second
	}
	return o
}

// Job is one submitted unit of work: a single scenario simulation or a
// sweep grid. Fields above mu are immutable after submission.
type Job struct {
	id        string
	kind      string
	key       string
	scen      *scenario.Scenario
	sweepSpec *SweepSpec
	timeout   time.Duration
	ctx       context.Context
	cancel    context.CancelFunc
	hub       *hub
	submitted time.Time
	done      chan struct{}

	mu       sync.Mutex
	state    State
	cached   bool
	errMsg   string
	result   []byte
	started  time.Time
	finished time.Time
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Key returns the job's content-addressed cache key.
func (j *Job) Key() string { return j.key }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cached reports whether the result was served from the cache.
func (j *Job) Cached() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

// Err returns the failure message ("" while running or on success).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// Result returns the encoded result bytes; ok is false until the job is
// done. The bytes are immutable.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// setRunning transitions queued → running; false if the job already ended.
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finalize moves the job to a terminal state exactly once. It closes the
// done channel and the event hub and releases the job's context. Returns
// false if the job was already terminal.
func (j *Job) finalize(st State, result []byte, err error) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = st
	j.result = result
	if err != nil {
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
	j.hub.close()
	j.cancel()
	return true
}

// wall returns the job's measured run time (0 until it has both started and
// finished).
func (j *Job) wall() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() || j.finished.IsZero() {
		return 0
	}
	return j.finished.Sub(j.started)
}

// Server owns the queue, the worker pool, the cache and the job registry.
// Create with New, expose with Handler, stop with Shutdown and/or Close.
type Server struct {
	opts       Options
	cache      *Cache
	queue      chan *Job
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	start      time.Time
	journal    *journal.Journal
	breaker    *breaker
	limiter    *limiter
	// runHook, when set (tests), runs at the start of every job execution;
	// a panic here exercises the worker isolation path.
	runHook func(*Job)
	// scatter, when set (cluster mode), is offered every sweep job before
	// the local runner; see SetSweepScatter.
	scatter func(ctx context.Context, spec *SweepSpec, key string) ([]SweepOutcome, bool, error)

	// stolenMu guards jobs handed out to cluster peers via StealQueued;
	// each entry carries a lease deadline after which ReclaimStolen
	// re-enqueues the job locally.
	stolenMu sync.Mutex
	stolen   map[string]*stolenJob

	busy           atomic.Int64
	doneJobs       atomic.Int64
	failed         atomic.Int64
	cancelled      atomic.Int64
	eventsStreamed atomic.Int64
	eventsDropped  atomic.Int64
	panics         atomic.Int64
	rateLimited    atomic.Int64
	journalErrors  atomic.Int64
	recoveredJobs  atomic.Int64
	replayedHits   atomic.Int64

	// Admission-service counters: synchronous POST /v1/admission decisions.
	admissionRequests atomic.Int64
	admissionAdmitted atomic.Int64
	admissionRejected atomic.Int64
	admissionShed     atomic.Int64

	// simMu guards sim, the running sum (Snapshot.Add) of every scenario
	// simulation this server has actually run (cache hits and sweep points
	// do not count) behind the per-run counters of /metrics. lastMode tracks
	// the most recent finished run's worst operating mode as a modeRank
	// ordinal (0 = no mode run yet), surfaced on /readyz and /metrics.
	simMu    sync.Mutex
	sim      network.Snapshot
	lastMode atomic.Int64

	wallMu    sync.Mutex
	wallSum   float64
	wallCount int64
	wallMax   float64

	mu     sync.Mutex
	closed bool
	jobs   map[string]*Job
	order  []string
	nextID int64
}

// New builds a server and starts its worker pool. When Options.Journal is
// set, the journal's replayed state is consumed first: finished results go
// back into the cache and incomplete jobs re-enter the queue under their
// original IDs, so a restart after a crash resumes rather than forgets.
func New(opts Options) *Server {
	o := opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       o,
		cache:      NewCache(o.CacheBytes),
		queue:      make(chan *Job, o.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		start:      time.Now(),
		journal:    o.Journal,
		breaker:    newBreaker(o.BreakerThreshold, o.BreakerCooldown),
		limiter:    newLimiter(o.RatePerSec, o.RateBurst),
		jobs:       make(map[string]*Job),
		stolen:     make(map[string]*stolenJob),
	}
	if s.journal != nil {
		s.recoverFromJournal()
	}
	for i := 0; i < o.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// recoverFromJournal replays the journal captured at Open: results seed the
// cache, incomplete jobs are rebuilt and re-enqueued (original IDs kept, so
// clients polling across the crash reconnect), and the ID counter advances
// past everything recovered. Runs before the workers start.
func (s *Server) recoverFromJournal() {
	rec := s.journal.Recovery()
	if rec == nil {
		return
	}
	for _, r := range rec.Results {
		s.cache.Put(r.Key, r.Bytes)
		s.replayedHits.Add(1)
	}
	var maxID int64 = -1
	for _, p := range rec.Pending {
		var n int64
		// Journalled IDs carry the peer's IDPrefix in cluster mode; strip it
		// so the counter still advances past everything recovered.
		id := strings.TrimPrefix(p.ID, s.opts.IDPrefix)
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > maxID {
			maxID = n
		}
	}
	s.nextID = maxID + 1
	for _, p := range rec.Pending {
		s.requeueRecovered(p)
	}
}

// requeueRecovered rebuilds one journalled pending job. Specs that no
// longer parse (e.g. written by an incompatible engine) fail the job
// cleanly — which also journals a terminal record, clearing the entry.
func (s *Server) requeueRecovered(p journal.Pending) {
	j := &Job{
		id:        p.ID,
		kind:      p.Kind,
		timeout:   p.Timeout,
		hub:       newHub(&s.eventsStreamed, &s.eventsDropped),
		submitted: time.Now(),
		done:      make(chan struct{}),
		state:     StateQueued,
	}
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)

	var err error
	j.scen, j.sweepSpec, j.key, err = decodeSpec("journal", p.Kind, p.Spec)

	s.mu.Lock()
	s.registerLocked(j)
	s.mu.Unlock()
	s.recoveredJobs.Add(1)
	if err != nil {
		s.finalizeJob(j, StateFailed, nil, fmt.Errorf("journal recovery: %w", err))
		return
	}
	select {
	case s.queue <- j:
	default:
		s.finalizeJob(j, StateFailed, nil, errors.New("journal recovery: job queue full"))
	}
}

// SubmitScenario enqueues a validated scenario. timeout ≤ 0 selects the
// server default. The scenario must not be mutated after submission.
func (s *Server) SubmitScenario(scen *scenario.Scenario, timeout time.Duration) (*Job, error) {
	key, err := ScenarioKey(scen)
	if err != nil {
		return nil, err
	}
	return s.submit(kindSim, key, scen, nil, timeout)
}

// SubmitSweep enqueues a normalised, validated sweep spec.
func (s *Server) SubmitSweep(spec *SweepSpec, timeout time.Duration) (*Job, error) {
	key, err := SweepKey(spec)
	if err != nil {
		return nil, err
	}
	return s.submit(kindSweep, key, nil, spec, timeout)
}

func (s *Server) submit(kind, key string, scen *scenario.Scenario, spec *SweepSpec, timeout time.Duration) (*Job, error) {
	if timeout <= 0 {
		timeout = s.opts.DefaultTimeout
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	id := fmt.Sprintf("%sj%06d", s.opts.IDPrefix, s.nextID)
	s.nextID++
	j := &Job{
		id:        id,
		kind:      kind,
		key:       key,
		scen:      scen,
		sweepSpec: spec,
		timeout:   timeout,
		hub:       newHub(&s.eventsStreamed, &s.eventsDropped),
		submitted: time.Now(),
		done:      make(chan struct{}),
		state:     StateQueued,
	}
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)

	// Cache fast path: identical (scenario, seed, engine) already computed.
	if b, ok := s.cache.Get(key); ok {
		j.mu.Lock()
		j.state = StateDone
		j.cached = true
		j.result = b
		j.started, j.finished = j.submitted, j.submitted
		j.mu.Unlock()
		close(j.done)
		j.hub.close()
		j.cancel()
		s.doneJobs.Add(1)
		s.registerLocked(j)
		return j, nil
	}

	// Cache miss: a simulation will have to run. While the breaker is open
	// the server is cache-only — refuse rather than feed a failing engine.
	if !s.breaker.allow() {
		j.cancel()
		return nil, ErrDegraded
	}

	// Journal the submission (fsync) before it becomes runnable, so an
	// acknowledged job survives a crash. Workers cannot observe the job
	// until it is queued below, which keeps journal order submit-first.
	if s.journal != nil {
		if err := s.journal.Append(s.submitRecord(j)); err != nil {
			// Availability over durability: serve the job, count the loss.
			s.journalErrors.Add(1)
		}
	}

	select {
	case s.queue <- j:
	default:
		if s.journal != nil {
			if err := s.journal.Append(journal.Record{Op: journal.OpCancelled, ID: j.id}); err != nil {
				s.journalErrors.Add(1)
			}
		}
		s.breaker.cancelled() // release a half-open probe slot, if any
		j.cancel()
		return nil, ErrQueueFull
	}
	s.registerLocked(j)
	return j, nil
}

// submitRecord renders a job's write-ahead record: kind, key, timeout and
// the compact JSON spec needed to rebuild it after a crash.
func (s *Server) submitRecord(j *Job) journal.Record {
	rec := journal.Record{
		Op: journal.OpSubmit, ID: j.id, Kind: j.kind, Key: j.key,
		Timeout: int64(j.timeout),
	}
	if spec, err := j.encodeSpec("journal"); err == nil {
		rec.Spec = spec
	}
	return rec
}

// encodeSpec renders the job's spec as the compact JSON that decodeSpec
// reads back. op names the caller in the unknown-kind error.
func (j *Job) encodeSpec(op string) ([]byte, error) {
	switch j.kind {
	case kindSim:
		return json.Marshal(j.scen)
	case kindSweep:
		return json.Marshal(j.sweepSpec)
	default:
		return nil, fmt.Errorf("serve: %s: unknown job kind %q", op, j.kind)
	}
}

// decodeSpec rebuilds a stored job spec (a journalled pending job, a stolen
// one): it parses and validates the spec of the given kind and recomputes
// its key. The key is never taken on trust from the store: it embeds the
// engine version, so results computed by an older engine can never satisfy
// a newer server. op names the caller in the unknown-kind error.
func decodeSpec(op, kind string, spec []byte) (scen *scenario.Scenario, sp *SweepSpec, key string, err error) {
	switch kind {
	case kindSim:
		if scen, err = scenario.Load(bytes.NewReader(spec)); err != nil {
			return nil, nil, "", err
		}
		key, err = ScenarioKey(scen)
		return scen, nil, key, err
	case kindSweep:
		sp = new(SweepSpec)
		dec := json.NewDecoder(bytes.NewReader(spec))
		dec.DisallowUnknownFields()
		if err = dec.Decode(sp); err != nil {
			return nil, nil, "", err
		}
		sp.normalise()
		if err = sp.Validate(); err != nil {
			return nil, nil, "", err
		}
		key, err = SweepKey(sp)
		return nil, sp, key, err
	default:
		return nil, nil, "", fmt.Errorf("serve: %s: unknown job kind %q", op, kind)
	}
}

// registerLocked records the job and prunes old terminal records beyond
// MaxJobs. Caller holds s.mu.
func (s *Server) registerLocked(j *Job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.order) <= s.opts.MaxJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.opts.MaxJobs
	for _, id := range s.order {
		if excess > 0 {
			if job, ok := s.jobs[id]; ok && job.State().Terminal() {
				delete(s.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every retained job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Cancel cancels a queued or running job via its context and finalizes it
// immediately, so the caller observes the cancelled state promptly; the
// worker (if mid-simulation) notices at its next slot chunk and frees the
// slot. Cancelling a terminal job is a no-op. ok is false for unknown IDs.
func (s *Server) Cancel(id string) (State, bool) {
	j, ok := s.Job(id)
	if !ok {
		return "", false
	}
	j.cancel()
	if j.finalize(StateCancelled, nil, context.Canceled) {
		s.cancelled.Add(1)
	}
	return j.State(), true
}

// CacheStats exposes the result-cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Degraded reports whether the circuit breaker has the server in cache-only
// degraded mode (new work refused with 503 until a probe job succeeds).
func (s *Server) Degraded() bool { return s.breaker.view().Degraded }

// Ready reports whether the server is accepting new work: not draining and
// not degraded. Cluster peers gossip this, so a peer that trips its breaker
// (or starts a SIGTERM drain) has its keyspace failed over to its successor.
func (s *Server) Ready() bool {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	return !closed && !s.breaker.view().Degraded
}

// SetSweepScatter installs the cluster fan-out hook: every sweep job is
// offered to fn before the local runner. fn returns the wire outcomes in
// grid order and handled=true when it distributed the grid; handled=false
// falls back to the classic local sweep. Must be called before the server
// receives traffic (cluster wiring happens at startup).
func (s *Server) SetSweepScatter(fn func(ctx context.Context, spec *SweepSpec, key string) ([]SweepOutcome, bool, error)) {
	s.scatter = fn
}

// finalizeJob applies a terminal state and updates the server counters; it
// is the only finalization path used by workers.
func (s *Server) finalizeJob(j *Job, st State, result []byte, err error) {
	if !j.finalize(st, result, err) {
		return
	}
	if s.journal != nil {
		rec := journal.Record{ID: j.id}
		switch st {
		case StateDone:
			rec.Op, rec.Key, rec.Result = journal.OpDone, j.key, result
		case StateFailed:
			rec.Op = journal.OpFailed
			if err != nil {
				rec.Error = err.Error()
			}
		default:
			rec.Op = journal.OpCancelled
		}
		if jerr := s.journal.Append(rec); jerr != nil {
			s.journalErrors.Add(1)
		}
	}
	switch st {
	case StateDone:
		s.doneJobs.Add(1)
	case StateFailed:
		s.failed.Add(1)
	case StateCancelled:
		s.cancelled.Add(1)
	}
	if w := j.wall(); w > 0 {
		secs := w.Seconds()
		s.wallMu.Lock()
		s.wallSum += secs
		s.wallCount++
		if secs > s.wallMax {
			s.wallMax = secs
		}
		s.wallMu.Unlock()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			s.runJob(j)
		case <-s.baseCtx.Done():
			return
		}
	}
}

func (s *Server) runJob(j *Job) {
	// Worker panic isolation: an engine panic fails its own job (the stack
	// travels in the job's error for post-mortems), feeds the breaker, and
	// leaves the worker goroutine alive for the next job. Registered first
	// so the busy-counter defer below still runs before recovery.
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.breaker.failure()
			s.finalizeJob(j, StateFailed, nil, fmt.Errorf("panic: %v\n\n%s", r, debug.Stack()))
		}
	}()
	if j.ctx.Err() != nil || j.State().Terminal() {
		s.finalizeJob(j, StateCancelled, nil, context.Canceled)
		return
	}
	// A duplicate submitted while the first copy was still queued hits the
	// cache here instead of re-simulating.
	if b, ok := s.cache.Get(j.key); ok {
		j.mu.Lock()
		j.cached = true
		j.started = time.Now()
		j.mu.Unlock()
		s.finalizeJob(j, StateDone, b, nil)
		return
	}
	s.busy.Add(1)
	defer s.busy.Add(-1)
	if !j.setRunning() {
		return
	}
	if s.runHook != nil {
		s.runHook(j)
	}
	ctx := j.ctx
	if j.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
		defer cancel()
	}
	var result []byte
	var err error
	switch j.kind {
	case kindSim:
		result, err = s.runSim(ctx, j)
	case kindSweep:
		result, err = s.runSweep(ctx, j)
	default:
		err = fmt.Errorf("serve: unknown job kind %q", j.kind)
	}
	switch {
	case err == nil:
		s.cache.Put(j.key, result)
		s.breaker.success()
		s.finalizeJob(j, StateDone, result, nil)
	case errors.Is(err, context.DeadlineExceeded):
		s.breaker.failure()
		s.finalizeJob(j, StateFailed, nil, fmt.Errorf("job timed out after %v", j.timeout))
	case errors.Is(err, context.Canceled):
		s.breaker.cancelled()
		s.finalizeJob(j, StateCancelled, nil, err)
	default:
		s.breaker.failure()
		s.finalizeJob(j, StateFailed, nil, err)
	}
}

// runSim executes one scenario simulation, streaming events to the job's
// hub and polling ctx between slot chunks.
func (s *Server) runSim(ctx context.Context, j *Job) ([]byte, error) {
	return s.simulateScenario(ctx, j.scen, j.key, j.hub)
}

// simulateScenario is the hub-optional simulation core shared by local jobs
// (runSim) and work stolen from cluster peers (ExecuteSpec, which has no
// job record and therefore no hub).
func (s *Server) simulateScenario(ctx context.Context, scen *scenario.Scenario, key string, h *hub) ([]byte, error) {
	res, err := scen.Build()
	if err != nil {
		return nil, err
	}
	// The streaming exporter rides the observer pipeline, gated on live
	// subscribers so an unwatched run pays one atomic load per event. Multi-
	// ring runs stream every ring's events through the same gate. Stolen
	// executions have no hub and skip the seam entirely.
	var gate ccredf.Observer
	if h != nil {
		exp := ccredf.NewEventExporter(h)
		gate = ccredf.ObserverFunc(func(e *ccredf.Event) {
			if h.active.Load() {
				exp.OnEvent(e)
			}
		})
	}
	if res.Multi != nil {
		if gate != nil {
			for i := 0; i < res.Multi.Rings(); i++ {
				res.Multi.RingNetwork(i).Attach(gate)
			}
		}
		p := res.Multi.RingNetwork(0).Params()
		chunk := ccredf.Time(s.opts.ChunkSlots) * (p.SlotTime() + p.MaxHandoverTime())
		for now := res.Multi.Now(); now < res.Horizon; now = res.Multi.Now() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			next := now + chunk
			if next > res.Horizon {
				next = res.Horizon
			}
			res.Multi.Run(next)
		}
		return s.account(SummarizeMulti(res.Multi, key))
	}
	if gate != nil {
		res.Net.Attach(gate)
	}
	period := res.Net.Params().SlotTime() + res.Net.Params().MaxHandoverTime()
	chunk := ccredf.Time(s.opts.ChunkSlots) * period
	for now := res.Net.Now(); now < res.Horizon; now = res.Net.Now() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next := now + chunk
		if next > res.Horizon {
			next = res.Horizon
		}
		res.Net.Run(next)
	}
	return s.account(Summarize(res.Net, key))
}

// account folds one finished run's counters into the server-lifetime totals
// behind /metrics and encodes its summary.
func (s *Server) account(sum Summary) ([]byte, error) {
	s.simMu.Lock()
	s.sim.Add(&sum.Snapshot)
	s.simMu.Unlock()
	if sum.Snapshot.Mode != "" {
		s.lastMode.Store(int64(modeRank(sum.Snapshot.Mode)))
	}
	return sum.Encode()
}

// runSweep fans the grid out — across the cluster when a scatter hook is
// installed (each point becomes a content-addressed single-point sub-sweep
// on its owning peer), over internal/sweep locally otherwise. Both paths
// stitch the points in grid order, so the result bytes are identical.
func (s *Server) runSweep(ctx context.Context, j *Job) ([]byte, error) {
	spec := j.sweepSpec
	if s.scatter != nil {
		points, handled, err := s.scatter(ctx, spec, j.key)
		if err != nil {
			return nil, err
		}
		if handled {
			return encodeSweepPoints(j.key, points)
		}
	}
	outcomes, err := sweep.RunCtx(ctx, spec.Grid(), spec.workerCount(), spec.HorizonSlots)
	if err != nil {
		return nil, err
	}
	return encodeSweep(j.key, outcomes)
}

// Shutdown drains gracefully: intake stops (submissions fail with
// ErrClosed), queued jobs run to completion, and Shutdown returns once the
// workers are idle. If ctx expires first the remaining jobs are cancelled
// hard and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeIntake()
	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		s.sweepUnfinished()
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-idle
		s.sweepUnfinished()
		return ctx.Err()
	}
}

// Close stops the server immediately: every queued and running job is
// cancelled and Close blocks until the workers exit. Safe after Shutdown.
func (s *Server) Close() {
	s.closeIntake()
	s.baseCancel()
	s.wg.Wait()
	s.sweepUnfinished()
}

func (s *Server) closeIntake() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.queue)
}

// sweepUnfinished finalizes jobs stranded in the queue by a hard stop.
func (s *Server) sweepUnfinished() {
	for _, j := range s.Jobs() {
		if !j.State().Terminal() {
			j.cancel()
			s.finalizeJob(j, StateCancelled, nil, context.Canceled)
		}
	}
}
