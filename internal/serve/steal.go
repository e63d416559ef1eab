package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"ccredf/internal/sweep"
)

// Work stealing, victim side. A cluster peer with idle workers asks a
// backlogged peer for one queued job (StealQueued); the thief runs the
// simulation on its own cores (ExecuteSpec) and posts the result bytes back
// (CompleteStolen), so the job finalizes — and its result lands in the
// cache — on the peer that owns the cache key. Determinism makes the whole
// exchange idempotent: if a thief dies mid-steal the lease expires,
// ReclaimStolen re-enqueues the job locally, and even a double execution
// can only ever produce byte-identical bytes under the same key.

// StolenJob is the portable form of one queued job handed to a thief.
type StolenJob struct {
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	Key     string          `json:"key"`
	Spec    json.RawMessage `json:"spec"`
	Timeout time.Duration   `json:"timeout_ns"`
}

// stolenJob tracks a job out on loan: the registry entry plus the lease
// deadline after which the victim takes it back.
type stolenJob struct {
	job      *Job
	deadline time.Time
}

// StealQueued pops one job off the run queue for a remote peer to execute,
// leasing it for the given duration. It competes with the local workers on
// the same channel, so stealing only ever wins work the pool has not picked
// up yet. Returns false when the queue is empty (or the server is closed).
func (s *Server) StealQueued(lease time.Duration) (*StolenJob, bool) {
	if lease <= 0 {
		lease = 30 * time.Second
	}
	for {
		var j *Job
		select {
		case got, ok := <-s.queue:
			if !ok {
				return nil, false
			}
			j = got
		default:
			return nil, false
		}
		if j.ctx.Err() != nil || j.State().Terminal() {
			s.finalizeJob(j, StateCancelled, nil, context.Canceled)
			continue
		}
		// A duplicate whose twin finished while this copy queued: serve the
		// cache line locally rather than shipping the job anywhere.
		if b, ok := s.cache.Get(j.key); ok {
			j.mu.Lock()
			j.cached = true
			j.started = time.Now()
			j.mu.Unlock()
			s.finalizeJob(j, StateDone, b, nil)
			continue
		}
		spec, err := j.encodeSpec("steal")
		if err != nil {
			s.finalizeJob(j, StateFailed, nil, err)
			continue
		}
		if !j.setRunning() {
			continue
		}
		s.stolenMu.Lock()
		s.stolen[j.id] = &stolenJob{job: j, deadline: time.Now().Add(lease)}
		s.stolenMu.Unlock()
		return &StolenJob{ID: j.id, Kind: j.kind, Key: j.key, Spec: spec, Timeout: j.timeout}, true
	}
}

// CompleteStolen finalizes a job previously handed out by StealQueued with
// the bytes the thief computed. key must match the job's own cache key —
// a mismatch means the peers disagree on the engine version, and the result
// cannot be trusted as this key's cache line. ok is false for unknown (or
// already reclaimed) IDs; the thief's work is then simply discarded, which
// is safe because a reclaimed job re-runs to identical bytes.
func (s *Server) CompleteStolen(id, key string, result []byte, errMsg string) bool {
	s.stolenMu.Lock()
	st, ok := s.stolen[id]
	delete(s.stolen, id)
	s.stolenMu.Unlock()
	if !ok {
		return false
	}
	j := st.job
	switch {
	case errMsg != "":
		s.breaker.failure()
		s.finalizeJob(j, StateFailed, nil, fmt.Errorf("stolen execution: %s", errMsg))
	case key != j.key:
		s.breaker.failure()
		s.finalizeJob(j, StateFailed, nil,
			fmt.Errorf("stolen execution: key mismatch (got %.12s…, want %.12s…): engine versions differ", key, j.key))
	default:
		s.cache.Put(j.key, result)
		s.breaker.success()
		s.finalizeJob(j, StateDone, result, nil)
	}
	return true
}

// ReclaimStolen re-enqueues every stolen job whose lease has expired (the
// thief died or lost the race). Jobs that cannot re-enter a full queue stay
// leased for another round rather than failing. Returns how many jobs were
// re-enqueued.
func (s *Server) ReclaimStolen() int {
	now := time.Now()
	var expired []*stolenJob
	s.stolenMu.Lock()
	for id, st := range s.stolen {
		if now.After(st.deadline) {
			expired = append(expired, st)
			delete(s.stolen, id)
		}
	}
	s.stolenMu.Unlock()

	reclaimed := 0
	for _, st := range expired {
		j := st.job
		if j.ctx.Err() != nil || j.State().Terminal() {
			continue
		}
		// Back to queued so a worker (or the next thief) picks it up.
		j.mu.Lock()
		if j.state == StateRunning {
			j.state = StateQueued
			j.started = time.Time{}
		}
		j.mu.Unlock()
		select {
		case s.queue <- j:
			reclaimed++
		default:
			// Queue full: extend the lease and retry next tick.
			s.stolenMu.Lock()
			s.stolen[j.id] = &stolenJob{job: j, deadline: now.Add(5 * time.Second)}
			s.stolenMu.Unlock()
		}
	}
	return reclaimed
}

// Backlog reports the server's load for gossip: queued jobs, busy workers
// and the worker pool size.
func (s *Server) Backlog() (queued, busy, workers int) {
	return len(s.queue), int(s.busy.Load()), s.opts.Workers
}

// ExecuteSpec runs a job spec to its result bytes without touching the job
// registry, queue or journal — the thief side of work stealing. The cache
// key is recomputed from the spec, so the caller can verify both peers
// agree on the engine version before placing the result. Event streaming is
// skipped (the job record, and thus the hub, lives on the victim).
func (s *Server) ExecuteSpec(ctx context.Context, kind string, spec []byte, timeout time.Duration) (key string, result []byte, err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	scen, sp, key, err := decodeSpec("execute", kind, spec)
	if err != nil {
		return "", nil, err
	}
	if scen != nil {
		result, err = s.simulateScenario(ctx, scen, key, nil)
	} else {
		result, err = s.runSweepSpec(ctx, sp, key)
	}
	return key, result, err
}

// runSweepSpec is the local sweep runner shared by ExecuteSpec; stolen
// sweeps never re-scatter (the thief was chosen because it is idle).
func (s *Server) runSweepSpec(ctx context.Context, sp *SweepSpec, key string) ([]byte, error) {
	outcomes, err := sweep.RunCtx(ctx, sp.Grid(), sp.workerCount(), sp.HorizonSlots)
	if err != nil {
		return nil, err
	}
	return encodeSweep(key, outcomes)
}

// RunSubSweep runs a sweep spec against this server's result cache: a hit
// returns the stored bytes, a miss runs the grid locally and installs the
// line. Cluster peers execute their self-owned scatter points through this —
// in-process rather than HTTP-to-self, so a scattered sweep can never
// deadlock on its own worker slot.
func (s *Server) RunSubSweep(ctx context.Context, sp *SweepSpec, key string) ([]byte, error) {
	if b, ok := s.cache.Get(key); ok {
		return b, nil
	}
	b, err := s.runSweepSpec(ctx, sp, key)
	if err != nil {
		return nil, err
	}
	s.cache.Put(key, b)
	return b, nil
}

// MaxBodyBytes reports the request-body limit, so wrapping handlers (the
// cluster forwarder) can enforce the same bound before touching a body.
func (s *Server) MaxBodyBytes() int64 { return s.opts.MaxBodyBytes }

// ErrNoQueuedJob signals an empty queue to the steal HTTP handler.
var ErrNoQueuedJob = errors.New("serve: no queued job to steal")
