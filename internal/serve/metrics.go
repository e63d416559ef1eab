package serve

import (
	"fmt"
	"io"
	"net/http"
	"time"
)

// WriteMetrics renders the operational counters in Prometheus text
// exposition format, with no dependency beyond the standard library.
// Conventions: *_total are monotonic counters, the rest are gauges.
func (s *Server) WriteMetrics(w io.Writer) {
	// Job registry view: current states and event-stream counters.
	var byState = map[State]int64{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCancelled: 0,
	}
	for _, j := range s.Jobs() {
		byState[j.State()]++
	}
	streamed, dropped := s.eventsStreamed.Load(), s.eventsDropped.Load()

	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	gauge("ccr_served_up", "1 while the service is running.", 1)
	gauge("ccr_served_uptime_seconds", "Seconds since the server started.",
		fmt.Sprintf("%.3f", time.Since(s.start).Seconds()))

	gauge("ccr_served_queue_depth", "Jobs waiting in the submission queue.", len(s.queue))
	gauge("ccr_served_queue_capacity", "Submission queue capacity.", cap(s.queue))

	fmt.Fprintf(w, "# HELP ccr_served_jobs Jobs currently retained, by state.\n# TYPE ccr_served_jobs gauge\n")
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "ccr_served_jobs{state=%q} %d\n", st, byState[st])
	}
	fmt.Fprintf(w, "# HELP ccr_served_jobs_total Jobs finished since start, by terminal state.\n# TYPE ccr_served_jobs_total counter\n")
	fmt.Fprintf(w, "ccr_served_jobs_total{state=\"done\"} %d\n", s.doneJobs.Load())
	fmt.Fprintf(w, "ccr_served_jobs_total{state=\"failed\"} %d\n", s.failed.Load())
	fmt.Fprintf(w, "ccr_served_jobs_total{state=\"cancelled\"} %d\n", s.cancelled.Load())

	workers := int64(s.opts.Workers)
	busy := s.busy.Load()
	gauge("ccr_served_workers", "Simulation worker pool size.", workers)
	gauge("ccr_served_workers_busy", "Workers currently running a job.", busy)
	gauge("ccr_served_worker_utilisation", "Busy workers over pool size.",
		fmt.Sprintf("%.4f", float64(busy)/float64(workers)))

	cs := s.cache.Stats()
	counter("ccr_served_cache_hits_total", "Result-cache hits.", cs.Hits)
	counter("ccr_served_cache_misses_total", "Result-cache misses.", cs.Misses)
	counter("ccr_served_cache_evictions_total", "Entries evicted by the LRU byte budget.", cs.Evictions)
	gauge("ccr_served_cache_entries", "Entries resident in the result cache.", cs.Entries)
	gauge("ccr_served_cache_bytes", "Bytes resident in the result cache.", cs.Bytes)
	gauge("ccr_served_cache_budget_bytes", "Result-cache byte budget.", cs.Budget)
	gauge("ccr_served_cache_hit_ratio", "Hits over lookups since start.",
		fmt.Sprintf("%.4f", cs.HitRatio()))

	s.wallMu.Lock()
	wallSum, wallCount, wallMax := s.wallSum, s.wallCount, s.wallMax
	s.wallMu.Unlock()
	counter("ccr_served_job_wall_seconds_sum", "Total measured job run time.",
		fmt.Sprintf("%.6f", wallSum))
	counter("ccr_served_job_wall_seconds_count", "Jobs with a measured run time.", wallCount)
	gauge("ccr_served_job_wall_seconds_max", "Longest single job run time.",
		fmt.Sprintf("%.6f", wallMax))

	counter("ccr_served_events_streamed_total", "Protocol-event lines delivered to stream subscribers.", streamed)
	counter("ccr_served_events_dropped_total", "Protocol-event lines dropped on slow subscribers.", dropped)

	// Per-run counters, summed over every scenario simulation this server
	// ran. Sweep points never feed them.
	s.simMu.Lock()
	sim := s.sim
	s.simMu.Unlock()
	counter("ccr_served_faults_injected_total", "Faults injected across all scenario simulations run by this server.", sim.FaultsInjected)
	counter("ccr_served_faults_detected_total", "Injected faults detected by the protocol in scenario simulations.", sim.FaultsDetected)
	counter("ccr_served_faults_recovered_total", "Injected faults recovered from in scenario simulations.", sim.FaultsRecovered)

	// Admission surface: synchronous /v1/admission decisions plus the
	// per-criticality admission counters of scenario simulations.
	counter("ccr_served_admission_requests_total", "Admission decisions served by POST /v1/admission.", s.admissionRequests.Load())
	counter("ccr_served_admission_admitted_total", "Admission decisions that admitted the candidate.", s.admissionAdmitted.Load())
	counter("ccr_served_admission_rejected_total", "Admission decisions that refused the candidate.", s.admissionRejected.Load())
	counter("ccr_served_admission_shed_total", "Connections shed by admission decisions.", s.admissionShed.Load())
	for _, c := range []struct {
		name, help string
		byLevel    [3]int64 // hard, firm, best_effort
	}{
		{"admitted", "Connections admitted", [3]int64{sim.AdmittedHard, sim.AdmittedFirm, sim.AdmittedBE}},
		{"evicted", "Connections evicted", [3]int64{sim.EvictedHard, sim.EvictedFirm, sim.EvictedBE}},
		{"missed", "Deadline misses", [3]int64{sim.MissedHard, sim.MissedFirm, sim.MissedBE}},
	} {
		name := "ccr_served_admission_sim_" + c.name + "_total"
		fmt.Fprintf(w, "# HELP %s %s in scenario simulations, by criticality level.\n# TYPE %s counter\n", name, c.help, name)
		for i, lv := range []string{"hard", "firm", "best_effort"} {
			fmt.Fprintf(w, "%s{level=%q} %d\n", name, lv, c.byLevel[i])
		}
	}

	// Operating-mode surface: hysteresis transitions, shedding and gating in
	// scenario simulations, plus the worst mode of the most recent
	// mode-enabled run (0 = none yet, 1 = normal, 2 = degraded,
	// 3 = critical).
	counter("ccr_served_mode_transitions_total", "Operating-mode transitions across all scenario simulations run by this server.", sim.ModeTransitions)
	counter("ccr_served_mode_shed_total", "Best-effort messages shed in Critical mode in scenario simulations.", sim.ModeShedBE)
	counter("ccr_served_mode_gated_total", "Connection admissions gated by Degraded/Critical mode in scenario simulations.", sim.ModeGated)
	gauge("ccr_served_mode_last", "Worst operating mode of the most recent mode-enabled scenario run (0 none, 1 normal, 2 degraded, 3 critical).", s.lastMode.Load())

	// Bridge-backpressure surface: bounded bridge queues on multi-ring runs.
	counter("ccr_served_bridge_backpressure_dropped_total", "Relays dropped by bridge-queue EDF backpressure.", sim.BridgeDropped)
	counter("ccr_served_bridge_backpressure_overflow_total", "Relays dropped by the bridge-queue hard safety cap.", sim.BridgeOverflowed)

	// Resilience surface: circuit breaker, panic isolation, admission
	// control and journal durability.
	bv := s.breaker.view()
	degraded := 0
	if bv.Degraded {
		degraded = 1
	}
	gauge("ccr_served_degraded", "1 while the circuit breaker is open and the server is cache-only.", degraded)
	gauge("ccr_served_breaker_consecutive_failures", "Current run of consecutive job failures.", bv.Consecutive)
	counter("ccr_served_breaker_trips_total", "Times the circuit breaker opened.", bv.Trips)
	counter("ccr_served_panics_total", "Engine panics converted into failed jobs.", s.panics.Load())
	counter("ccr_served_ratelimited_total", "Submissions refused by the per-client rate limit.", s.rateLimited.Load())

	if s.journal != nil {
		js := s.journal.Stats()
		counter("ccr_served_journal_appends_total", "Records appended to the job journal.", js.Appends)
		counter("ccr_served_journal_compactions_total", "Journal compactions performed.", js.Compactions)
		counter("ccr_served_journal_errors_total", "Journal writes that failed (job served anyway).", s.journalErrors.Load())
		gauge("ccr_served_journal_bytes", "Current journal file size.", js.SizeBytes)
		gauge("ccr_served_journal_pending_jobs", "Incomplete jobs recorded in the journal.", js.PendingJobs)
		counter("ccr_served_recovered_jobs_total", "Jobs re-enqueued from the journal at startup.", s.recoveredJobs.Load())
		counter("ccr_served_replayed_results_total", "Finished results replayed into the cache at startup.", s.replayedHits.Load())
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}
