package par

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheSingleFlight is the contract the experiment suite depends on:
// N goroutines requesting the same key observe exactly one build.
func TestCacheSingleFlight(t *testing.T) {
	var c Cache[string, int]
	var builds atomic.Int64
	const goroutines = 64

	var wg sync.WaitGroup
	results := make([]int, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Get("trace/grep/ppc", func() (int, error) {
				builds.Add(1)
				// Widen the race window so late arrivals really do
				// find the build in flight.
				time.Sleep(5 * time.Millisecond)
				return 42, nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want exactly 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("goroutine %d saw %d, want 42", i, v)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d keys, want 1", c.Len())
	}
}

// TestCacheStress hammers many keys from many goroutines in parallel with
// the rest of the test binary; under -race this is the data-race gate for
// the cache implementation.
func TestCacheStress(t *testing.T) {
	t.Parallel()
	const keys, goroutines, rounds = 16, 8, 50

	var c Cache[int, string]
	var builds [keys]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (g + r) % keys
				v, err := c.Get(k, func() (string, error) {
					builds[k].Add(1)
					return fmt.Sprintf("value-%d", k), nil
				})
				if err != nil || v != fmt.Sprintf("value-%d", k) {
					t.Errorf("key %d: got %q, %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for k := range builds {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d built %d times, want 1", k, n)
		}
	}
	if c.Len() != keys {
		t.Errorf("cache holds %d keys, want %d", c.Len(), keys)
	}
}

// TestCacheErrorCached pins that a failed build is memoized too: the suite's
// builds are deterministic, so retrying an identical computation would only
// repeat the failure (and could mask a partial-result inconsistency).
func TestCacheErrorCached(t *testing.T) {
	var c Cache[string, int]
	var builds atomic.Int64
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		_, err := c.Get("bad", func() (int, error) {
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

// TestCacheDistinctKeys pins that different keys build independently.
func TestCacheDistinctKeys(t *testing.T) {
	type key struct {
		name, target string
		scale        int
	}
	var c Cache[key, int]
	a, _ := c.Get(key{"grep", "ppc", 1}, func() (int, error) { return 1, nil })
	b, _ := c.Get(key{"grep", "axp", 1}, func() (int, error) { return 2, nil })
	s, _ := c.Get(key{"grep", "ppc", 2}, func() (int, error) { return 3, nil })
	if a != 1 || b != 2 || s != 3 {
		t.Fatalf("got %d/%d/%d, want 1/2/3", a, b, s)
	}
}

// highWater is a Meter recording how many tasks run at once, and the most
// that ever did.
type highWater struct{ running, max atomic.Int64 }

func (h *highWater) Acquire() {
	n := h.running.Add(1)
	for {
		hw := h.max.Load()
		if n <= hw || h.max.CompareAndSwap(hw, n) {
			return
		}
	}
}

func (h *highWater) Release() { h.running.Add(-1) }

// TestForEachBounded runs far more tasks than workers and checks, through
// the occupancy meter, that never more than workers run at once and that
// every task is released.
func TestForEachBounded(t *testing.T) {
	const workers, tasks = 3, 40
	var m highWater
	err := ForEach(context.Background(), workers, tasks, &m, func(int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hw := m.max.Load(); hw < 1 || hw > workers {
		t.Fatalf("observed %d concurrent tasks, bound is %d", hw, workers)
	}
	if n := m.running.Load(); n != 0 {
		t.Fatalf("%d tasks still metered as running after ForEach returned", n)
	}
}

// TestForEachVisitsAll checks every index runs exactly once.
func TestForEachVisitsAll(t *testing.T) {
	const n = 100
	var visits [n]atomic.Int64
	err := ForEach(context.Background(), 4, n, nil, func(i int) error {
		visits[i].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range visits {
		if v := visits[i].Load(); v != 1 {
			t.Errorf("index %d visited %d times", i, v)
		}
	}
}

// TestForEachLowestIndexError pins the deterministic error choice: when
// several indices fail, the lowest index's error is reported regardless of
// completion order.
func TestForEachLowestIndexError(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		err := ForEach(context.Background(), 8, 20, nil, func(i int) error {
			if i%3 == 2 { // fails at 2, 5, 8, ...
				if i == 2 {
					// Make the lowest failure finish last.
					time.Sleep(2 * time.Millisecond)
				}
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 2 failed" {
			t.Fatalf("trial %d: err = %v, want cell 2's", trial, err)
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, nil, func(int) error { return errors.New("nope") }); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers = %d", DefaultWorkers())
	}
	// workers <= 0 must fall back to the default, not deadlock.
	if err := ForEach(context.Background(), 0, 5, nil, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
