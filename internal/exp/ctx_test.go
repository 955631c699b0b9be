package exp

import (
	"context"
	"errors"
	"testing"

	"lvp/internal/axp21164"
	"lvp/internal/lvp"
	"lvp/internal/prog"
)

// TestSuiteWithContextCancelled checks a dead context stops the suite
// before any cell is built, and that the cancellation is not memoized: the
// base view (Background context) recomputes the same cells successfully.
func TestSuiteWithContextCancelled(t *testing.T) {
	s := NewSuiteParallel(1, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	view := s.WithContext(ctx)
	if _, err := view.Trace("quick", prog.AXP); !errors.Is(err, context.Canceled) {
		t.Fatalf("Trace err = %v, want context.Canceled", err)
	}
	if _, err := view.Table1(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Table1 err = %v, want context.Canceled", err)
	}

	// The cancelled builds must not poison the shared caches.
	if _, err := s.Trace("quick", prog.AXP); err != nil {
		t.Fatalf("base view Trace after cancellation: %v", err)
	}
	cfg := lvp.Simple
	if _, err := s.Sim21164("quick", axp21164.Config21164(), &cfg); err != nil {
		t.Fatalf("base view Sim21164 after cancellation: %v", err)
	}
}

// TestSuiteWithContextSharesCaches pins that WithContext views share one
// memo table: a cell built through a view is a cache hit on the base suite.
func TestSuiteWithContextSharesCaches(t *testing.T) {
	s := NewSuiteParallel(1, 2)
	view := s.WithContext(context.Background())
	if _, err := view.Trace("quick", prog.PPC); err != nil {
		t.Fatal(err)
	}
	before := s.CacheStats().Traces.Builds()
	if _, err := s.Trace("quick", prog.PPC); err != nil {
		t.Fatal(err)
	}
	if after := s.CacheStats().Traces.Builds(); after != before {
		t.Fatalf("base view rebuilt a trace the context view already built (%d -> %d builds)", before, after)
	}
}
