package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"lvp/internal/axp21164"
	"lvp/internal/lvp"
	"lvp/internal/obs"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
)

// TestCacheStatsSingleFlight hits the same annotation key from 64 goroutines
// and asserts — directly from the cache counters — that exactly one build
// happened and everyone else coalesced onto it.
func TestCacheStatsSingleFlight(t *testing.T) {
	s := NewSuite(1)
	const callers = 64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Annotation("quick", prog.AXP, lvp.Simple); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	cs := s.CacheStats()
	if cs.Annotations.Gets != callers {
		t.Errorf("annotation gets = %d, want %d", cs.Annotations.Gets, callers)
	}
	if got := cs.Annotations.Builds(); got != 1 {
		t.Errorf("annotation builds = %d, want 1 (single-flight)", got)
	}
	if cs.Annotations.Entries != 1 {
		t.Errorf("annotation entries = %d, want 1", cs.Annotations.Entries)
	}
	if cs.Annotations.Hits != callers-1 {
		t.Errorf("annotation hits = %d, want %d", cs.Annotations.Hits, callers-1)
	}
	// The annotation build pulled the trace exactly once.
	if got := cs.Traces.Builds(); got != 1 {
		t.Errorf("trace builds = %d, want 1", got)
	}
	if rate := cs.Annotations.HitRate(); rate <= 0.9 {
		t.Errorf("annotation hit rate = %v, want > 0.9", rate)
	}
}

// TestSuiteMetricsPopulated runs one cell of each phase and checks the
// registry carries the snapshot fields the acceptance criteria name:
// per-phase timings, LVPT/LCT/CVU counters, and par.Cache rates.
func TestSuiteMetricsPopulated(t *testing.T) {
	s := NewSuite(1)
	if _, _, err := s.Annotation("quick", prog.PPC, lvp.Simple); err != nil {
		t.Fatal(err)
	}
	cfg := lvp.Simple
	if _, err := s.Sim620("quick", ppc620.Config620(), &cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sim21164("quick", axp21164.Config21164(), &cfg); err != nil {
		t.Fatal(err)
	}
	s.FinalizeMetrics()

	snap := s.Metrics.Snapshot()
	for _, c := range []string{
		"lvp.loads", "lvpt.lookups", "lvpt.hits", "lvpt.updates",
		"lct.lookups", "lct.updates",
		"cvu.lookups", "cvu.inserts",
		"sim620.runs", "sim620.cycles", "sim21164.runs", "sim21164.cycles",
		"progress.trace", "progress.annotate", "progress.sim620", "progress.sim21164",
	} {
		if snap.Counters[c] <= 0 {
			t.Errorf("counter %q = %d, want > 0", c, snap.Counters[c])
		}
	}
	for _, tm := range []string{"phase.trace", "phase.annotate", "phase.sim620", "phase.sim21164"} {
		if snap.Timers[tm].Count == 0 {
			t.Errorf("timer %q missing from snapshot", tm)
		}
	}
	for _, g := range []string{"cache.traces.gets", "cache.annotations.gets", "cache.sims620.entries"} {
		if snap.Gauges[g].Value <= 0 {
			t.Errorf("gauge %q = %d, want > 0", g, snap.Gauges[g].Value)
		}
	}
	// At least one LCT transition pair was exercised.
	found := false
	for name := range snap.Counters {
		if strings.HasPrefix(name, "lct.trans.") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no lct.trans.* counters recorded")
	}
}

// TestSuiteTracerEmitsJSONL runs an annotation with the lvpt and pipeline
// channels live and validates every emitted line parses as JSON.
func TestSuiteTracerEmitsJSONL(t *testing.T) {
	s := NewSuite(1)
	var buf bytes.Buffer
	s.Tracer = obs.NewTracer(&buf, obs.ChanLVPT|obs.ChanPipeline)
	if _, _, err := s.Annotation("quick", prog.AXP, lvp.Simple); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("got %d trace lines, want at least a load event and a phase-done", len(lines))
	}
	sawLoad, sawPhase := false, false
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v: %q", i, err, line)
		}
		switch m["chan"] {
		case "lvpt":
			sawLoad = true
		case "pipeline":
			sawPhase = true
		default:
			t.Fatalf("line %d on unexpected channel %v", i, m["chan"])
		}
	}
	if !sawLoad || !sawPhase {
		t.Errorf("missing events: lvpt=%v pipeline=%v", sawLoad, sawPhase)
	}
}

// TestNilMetricsSuite checks a bare Suite (no registry, no tracer) still
// runs every phase: instrumentation must never be load-bearing.
func TestNilMetricsSuite(t *testing.T) {
	s := &Suite{Scale: 1, MaxSteps: 200_000_000, caches: &suiteCaches{}}
	if _, _, err := s.Annotation("quick", prog.AXP, lvp.Simple); err != nil {
		t.Fatal(err)
	}
	cfg := lvp.Simple
	if _, err := s.Sim21164("quick", axp21164.Config21164(), &cfg); err != nil {
		t.Fatal(err)
	}
	if cs := s.CacheStats(); cs.Annotations.Builds() != 1 {
		t.Errorf("annotation builds = %d, want 1", cs.Annotations.Builds())
	}
}
