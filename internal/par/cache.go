package par

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Cache is a concurrency-safe, single-flight memo table: for each key the
// build function runs exactly once, no matter how many goroutines ask for
// the key concurrently; the rest block until the first build completes and
// then share its result. Results (including errors — builds here are pure,
// deterministic computations) are cached forever, with one exception: a
// build that fails with a context error is evicted so cancellation never
// poisons the table (see GetCtx).
//
// The zero value is ready to use.
type Cache[K comparable, V any] struct {
	mu   sync.Mutex
	m    map[K]*flight[V]
	gets int64
	hits int64
}

// CacheStats is a snapshot of a cache's traffic: total Get calls, the
// subset that found an existing (or in-flight) entry, and the number of
// distinct keys. Gets - Hits is the number of builds started — with
// single-flight coalescing it equals Entries, which is exactly what the
// suite's single-flight tests assert.
type CacheStats struct {
	Gets    int64
	Hits    int64
	Entries int
}

// Builds is the number of build functions started (cache misses).
func (s CacheStats) Builds() int64 { return s.Gets - s.Hits }

// HitRate is Hits per Get.
func (s CacheStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Get returns the cached value for key, building it with build on first use.
// Concurrent Gets for the same key run build once and share the result.
// build runs without any cache lock held, so it may itself Get from other
// caches (but must not re-enter the same key, which would deadlock).
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (V, error) {
	return c.GetCtx(context.Background(), key, build)
}

// GetCtx is Get with cancellation. A waiter whose ctx fires stops waiting
// and returns ctx's error; the in-flight build itself is unaffected (it
// belongs to whichever caller started it). If build fails with a context
// error — its own ctx was cancelled or timed out — the result is NOT cached:
// the key is removed so a later caller rebuilds it, rather than a transient
// cancellation poisoning the memo table forever. All other errors stay
// cached, preserving the pure-deterministic-build contract. A build that
// panics is evicted too: every caller waiting on it returns an error naming
// the panic, the next Get rebuilds, and the panic continues in the caller
// that ran the build.
func (c *Cache[K, V]) GetCtx(ctx context.Context, key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*flight[V])
	}
	c.gets++
	f, ok := c.m[key]
	if ok {
		c.hits++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.v, f.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	f = &flight[V]{done: make(chan struct{})}
	c.m[key] = f
	c.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("par: build panicked: %v", r)
			c.evict(key, f)
			close(f.done)
			panic(r)
		}
	}()
	f.v, f.err = build()
	if f.err != nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
		// Evict before waking waiters: anyone already blocked on this
		// flight shares the cancellation, but the next Get for the key
		// starts a fresh build.
		c.evict(key, f)
	}
	close(f.done)
	return f.v, f.err
}

// evict removes key's flight f, unless a later build already replaced it.
func (c *Cache[K, V]) evict(key K, f *flight[V]) {
	c.mu.Lock()
	if c.m[key] == f {
		delete(c.m, key)
	}
	c.mu.Unlock()
}

// Len reports the number of cached (or in-flight) keys.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats reports the cache's traffic counters.
func (c *Cache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Gets: c.gets, Hits: c.hits, Entries: len(c.m)}
}
