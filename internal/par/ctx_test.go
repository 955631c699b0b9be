package par

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachCtxCancelStopsLaunching cancels mid-fan-out and checks that
// (a) the call returns the context error and (b) a tail of indices was
// never launched.
func TestForEachCtxCancelStopsLaunching(t *testing.T) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	var launched atomic.Int64
	err := ForEach(ctx, 2, n, nil, func(i int) error {
		launched.Add(1)
		if i == 3 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if l := launched.Load(); l == n {
		t.Fatalf("all %d tasks launched despite cancellation", n)
	}
}

// TestForEachCtxTaskErrorWins pins the deterministic error choice under
// cancellation: a real task failure beats the context error.
func TestForEachCtxTaskErrorWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("cell failed")
	err := ForEach(ctx, 4, 50, nil, func(i int) error {
		if i == 1 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want task error", err)
	}
}

// TestForEachCtxPreCancelled runs nothing when the context is already done.
func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var launched atomic.Int64
	err := ForEach(ctx, 4, 10, nil, func(i int) error {
		launched.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if l := launched.Load(); l != 0 {
		t.Fatalf("%d tasks launched on a dead context, want 0", l)
	}
}

// TestCacheGetCtxWaiterCancelled checks a waiter abandons an in-flight
// build when its context fires, without disturbing the build itself.
func TestCacheGetCtxWaiterCancelled(t *testing.T) {
	var c Cache[string, int]
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Get("slow", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.GetCtx(ctx, "slow", func() (int, error) { return 0, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}

	close(release)
	v, err := c.Get("slow", func() (int, error) { return 0, errors.New("rebuilt") })
	if err != nil || v != 7 {
		t.Fatalf("build result = %d, %v; want 7 from the original flight", v, err)
	}
}

// TestCacheGetCtxCancelledBuildNotCached pins the poison-proofing: a build
// failing with a context error is evicted, so the next Get rebuilds.
func TestCacheGetCtxCancelledBuildNotCached(t *testing.T) {
	var c Cache[string, int]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.GetCtx(ctx, "k", func() (int, error) {
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("first get err = %v, want context.Canceled", err)
	}
	if c.Len() != 0 {
		t.Fatalf("cancelled build stayed cached (%d entries)", c.Len())
	}
	v, err := c.Get("k", func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("rebuild = %d, %v; want 42, nil", v, err)
	}
	if c.Len() != 1 {
		t.Fatalf("rebuilt value not cached (%d entries)", c.Len())
	}
}

// TestCacheGetCtxNonContextErrorStaysCached guards the existing contract:
// ordinary errors are still memoized even through the ctx-aware path.
func TestCacheGetCtxNonContextErrorStaysCached(t *testing.T) {
	var c Cache[string, int]
	var builds atomic.Int64
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		_, err := c.GetCtx(context.Background(), "bad", func() (int, error) {
			builds.Add(1)
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err = %v, want boom", i, err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("failing build ran %d times, want 1", n)
	}
}

// TestCacheGetPanicReleasesWaiters: a build that panics must not strand the
// callers waiting on its key. The builder's own call re-panics (recovered
// here), a concurrent waiter returns an error naming the panic instead of
// blocking forever, and the next Get rebuilds the key.
func TestCacheGetPanicReleasesWaiters(t *testing.T) {
	var c Cache[string, int]
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Get("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waited := make(chan error, 1)
	go func() {
		_, err := c.Get("k", func() (int, error) { return 0, errors.New("waiter must not build") })
		waited <- err
	}()
	// Let the waiter find the in-flight build before it panics.
	for c.Stats().Hits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if r := <-panicked; r != "boom" {
		t.Fatalf("builder recovered %v, want the build's panic", r)
	}
	select {
	case err := <-waited:
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("waiter err = %v, want one naming the panic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked on a build that panicked")
	}
	if c.Len() != 0 {
		t.Fatalf("panicked build stayed cached (%d entries)", c.Len())
	}
	v, err := c.Get("k", func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("rebuild = %d, %v; want 42, nil", v, err)
	}
}
