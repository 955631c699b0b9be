// Package par provides the concurrency primitives the experiment engine is
// built from: a bounded, deterministic indexed fan-out (ForEach) and a
// single-flight memoizing cache (cache.go).
//
// The design goal is determinism under parallelism: experiment drivers fan
// work out with ForEach but merge results into pre-sized, index-addressed
// slots, so the rendered tables and figures are byte-identical regardless of
// worker count or completion order.
package par

import (
	"context"
	"runtime"
	"sync"
)

// DefaultWorkers returns the default pool size: the process's GOMAXPROCS.
func DefaultWorkers() int {
	return max(1, runtime.GOMAXPROCS(0))
}

// Meter observes worker occupancy: Acquire when a task starts running,
// Release when it finishes. Implementations must be safe for concurrent use
// (obs.Gauge satisfies this, tracking busy count and high-water mark).
type Meter interface {
	Acquire()
	Release()
}

// ForEach runs fn(i) for every i in [0, n) on at most `workers` goroutines
// at once (<= 0 selects DefaultWorkers) and waits for all of them. m, when
// non-nil, observes how many tasks are running at once.
//
// Once ctx is done no further indices are launched (already-running tasks
// finish normally; fn observes cancellation itself if it checks ctx). Each
// index writes its error into a private slot, and ForEach returns the
// non-nil error with the lowest index — so the error path, like the success
// path, is independent of scheduling order. ctx's error is reported only
// when every launched task succeeded but some indices were skipped.
func ForEach(ctx context.Context, workers, n int, m Meter, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	done := ctx.Done()
	skipped := false
launch:
	for i := 0; i < n; i++ {
		// Check cancellation before blocking on a worker slot, and
		// again while waiting for one, so a cancelled fan-out stops
		// submitting as soon as the context fires.
		select {
		case <-done:
			skipped = true
			break launch
		default:
		}
		select {
		case <-done:
			skipped = true
			break launch
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if m != nil {
				m.Acquire()
				defer m.Release()
			}
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if skipped {
		return ctx.Err()
	}
	return nil
}
