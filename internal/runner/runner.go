// Package runner provides a deterministic parallel map for fanning
// independent simulations out over a worker pool.
//
// The discrete-event core is strictly single-threaded — determinism comes
// from a totally ordered event queue — so parallelism in this codebase only
// ever appears *across* simulations (sweep grids, benchmark suites, service
// jobs). Every call site used to hand-roll the same jobs-channel/WaitGroup
// pool; this package is that pool, written once.
package runner

import (
	"context"
	"runtime"
	"sync"
)

// Map evaluates fn(i) for i in [0, n) on a pool of workers and returns the
// results indexed by i. Order is deterministic regardless of worker count:
// result[i] always holds fn(i). workers ≤ 0 selects GOMAXPROCS; a single
// worker (or n ≤ 1) runs inline with no goroutines.
//
// fn must be safe to call from multiple goroutines; each index is evaluated
// exactly once.
func Map[T any](n, workers int, fn func(i int) T) []T {
	results, _ := MapCtx(context.Background(), n, workers, fn)
	return results
}

// MapCtx is Map with cooperative cancellation: once ctx is cancelled no
// further index is dispatched, in-flight calls run to completion, and the
// context error is returned. Indices that were never dispatched keep the
// zero value of T in the result slice — callers that need to distinguish
// "skipped" from "computed zero" should encode that in T (sweep records the
// context error in the outcome). fn should itself poll ctx if a single call
// can run long.
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) T) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return results, err
			}
			results[i] = fn(i)
		}
		return results, ctx.Err()
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = fn(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return results, ctx.Err()
}
