package exp

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/obs"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
)

// TestSlabAnnotationDifferential pins the suite's slab-backed annotation to
// the record-stream reference: for every workload, both targets and every
// unit configuration, Annotation's per-record states and Stats, and
// AnnotationStats, equal lvp.AnnotateTraced over the trace's records
// (Unit.RecordBatch over Trace.Batches). Configurations that share
// hardware share one unit run, so this also proves the name stamped on a
// shared run. -short keeps three workloads.
func TestSlabAnnotationDifferential(t *testing.T) {
	benches := bench.All()
	if testing.Short() {
		benches = benches[:3]
	}
	cfgs := unitConfigs()
	for _, b := range benches {
		s := NewSuite(1) // per workload, so earlier traces can be freed
		for _, tg := range prog.Targets {
			tr, err := s.Trace(b.Name, tg)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range cfgs {
				wantAnn, wantSt, err := lvp.AnnotateTraced(tr, cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				st, err := s.AnnotationStats(b.Name, tg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if st != wantSt {
					t.Fatalf("%s/%s %s: AnnotationStats diverged:\n slab        %+v\n RecordBatch %+v",
						b.Name, tg.Name, cfg.Name, st, wantSt)
				}
				ann, st, err := s.Annotation(b.Name, tg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if st != wantSt {
					t.Fatalf("%s/%s %s: Annotation stats diverged", b.Name, tg.Name, cfg.Name)
				}
				if !slices.Equal(ann, wantAnn) {
					t.Fatalf("%s/%s %s: per-record states diverged from RecordBatch", b.Name, tg.Name, cfg.Name)
				}
			}
		}
	}
}

// TestOneUnitRunPerHardwareConfig runs the stats-only unit experiments and
// checks the unit ran exactly once per distinct (benchmark, target,
// hardware configuration): four sweep points are other configurations
// under another name (LVPT 1024 and LCT 2-bit are Simple, CVU 128 is
// Constant, CVU 32 is LCT 1-bit). A key first needed as stats and then as
// a per-record annotation is not run again, and every result carries the
// name it was requested under.
func TestOneUnitRunPerHardwareConfig(t *testing.T) {
	s := NewSuite(1)
	if _, err := s.LVPTSweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LCTBitsSweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CVUSweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Table3(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Table4(); err != nil {
		t.Fatal(err)
	}
	paper := []lvp.Config{lvp.Simple, lvp.Limit, lvp.Constant}
	ppc := map[lvp.Config]bool{}
	for _, cfg := range paper {
		ppc[hwConfig(cfg)] = true
	}
	for _, n := range lvptSweepSizes {
		ppc[hwConfig(lvptSweepConfig(n))] = true
	}
	for _, b := range lctSweepBits {
		ppc[hwConfig(lctSweepConfig(b))] = true
	}
	for _, n := range cvuSweepSizes {
		ppc[hwConfig(cvuSweepConfig(n))] = true
	}
	if len(ppc) != 14 {
		t.Fatalf("%d distinct PPC unit configurations, want 14 (3 paper + 15 sweep points - 4 aliases)", len(ppc))
	}
	want := int64(len(bench.All()) * (len(ppc) + len(paper)))
	runs := s.Metrics.Counter("progress.annotate")
	if got := runs.Value(); got != want {
		t.Fatalf("progress.annotate = %d, want %d (one run per distinct key)", got, want)
	}
	if got := s.CacheStats().Annotations.Builds(); got != want {
		t.Fatalf("unit-run cache builds = %d, want %d", got, want)
	}

	cfg := lctSweepConfig(2) // Simple under another name, run as stats above
	_, st, err := s.Annotation("quick", prog.PPC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Value(); got != want {
		t.Fatalf("per-record annotation of a cached key ran the unit again (%d runs, want %d)", got, want)
	}
	simple, err := s.AnnotationStats("quick", prog.PPC, lvp.Simple)
	if err != nil {
		t.Fatal(err)
	}
	if st.Config != cfg.Name || simple.Config != lvp.Simple.Name {
		t.Fatalf("stamped names %q and %q, want %q and %q", st.Config, simple.Config, cfg.Name, lvp.Simple.Name)
	}
	simple.Config = st.Config
	if st != simple {
		t.Fatal("a shared run's stats differ between its two names")
	}
}

// TestSimCacheByHardwareIdentity checks the machine caches key by hardware
// too: a renamed Simple reuses Simple's simulation on both models and
// reports the requested name, while two 620s that share the name "620" but
// not their hardware are two simulations.
func TestSimCacheByHardwareIdentity(t *testing.T) {
	s := NewSuite(1)
	renamed := lvp.Simple
	renamed.Name = "Simple/1024"
	a, err := s.Sim620("quick", ppc620.Config620(), &lvp.Simple)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Sim620("quick", ppc620.Config620(), &renamed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Sim21164("quick", axp21164.Config21164(), &lvp.Simple)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Sim21164("quick", axp21164.Config21164(), &renamed)
	if err != nil {
		t.Fatal(err)
	}
	if a.LVPConfig != "Simple" || b.LVPConfig != renamed.Name || c.LVPConfig != "Simple" || d.LVPConfig != renamed.Name {
		t.Fatalf("labels %q %q %q %q", a.LVPConfig, b.LVPConfig, c.LVPConfig, d.LVPConfig)
	}
	if a.Cycles != b.Cycles || c.Cycles != d.Cycles {
		t.Fatal("a renamed configuration simulated differently")
	}
	cs := s.CacheStats()
	if cs.Sims620.Builds() != 1 || cs.Sims21164.Builds() != 1 {
		t.Fatalf("sim builds 620=%d 21164=%d, want 1 each", cs.Sims620.Builds(), cs.Sims21164.Builds())
	}

	// The 620+'s hardware under the 620's name.
	wide := ppc620.Config620Plus()
	wide.Name = a.Machine
	e, err := s.Sim620("quick", wide, &lvp.Simple)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CacheStats().Sims620.Builds(); got != 2 {
		t.Fatalf("620 sim builds = %d after a second 620 hardware, want 2", got)
	}
	if e.Machine != a.Machine || e.Cycles == a.Cycles {
		t.Fatalf("620 %q: %d cycles, enlarged 620 %q: %d cycles; want the same name and different cycles",
			a.Machine, a.Cycles, e.Machine, e.Cycles)
	}
}

// TestSharedRunLabel checks a shared unit run or simulation is labelled by
// its hardware identity, not by the requester that built it: LCT sweep
// 2-bit is Simple, so its annotate and sim phases carry "Simple" even when
// it is requested first, while the returned results carry the requested
// name.
func TestSharedRunLabel(t *testing.T) {
	for cfg, want := range map[lvp.Config]string{
		lctSweepConfig(2):     "Simple",
		lvptSweepConfig(1024): "Simple",
		cvuSweepConfig(128):   "Constant",
		cvuSweepConfig(32):    "Simple/lct1",
		lvptSweepConfig(512):  "Simple/512",
		{Name: "custom", LVPTEntries: 64, HistoryDepth: 1, LCTEntries: 64, LCTBits: 2}: "custom",
	} {
		if got := runConfig(cfg); got.Name != want || hwConfig(got) != hwConfig(cfg) {
			t.Errorf("runConfig(%s) = %+v, want %q", cfg.Name, got, want)
		}
	}

	s := NewSuite(1)
	var buf bytes.Buffer
	s.Tracer = obs.NewTracer(&buf, obs.ChanPipeline)
	cfg := lctSweepConfig(2)
	st, err := s.AnnotationStats("quick", prog.AXP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Sim620("quick", ppc620.Config620(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Sim21164("quick", axp21164.Config21164(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.LVPConfig != cfg.Name || b.LVPConfig != cfg.Name || st.Config != cfg.Name {
		t.Fatalf("results labelled %q %q %q, want the requested %q", a.LVPConfig, b.LVPConfig, st.Config, cfg.Name)
	}
	phases := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct{ Phase, Config string }
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Config != "" {
			phases[ev.Phase] = true
			if ev.Config != "Simple" {
				t.Errorf("%s phase labelled %q, want the hardware identity's name Simple", ev.Phase, ev.Config)
			}
		}
	}
	for _, ph := range []string{"annotate", "sim620", "sim21164"} {
		if !phases[ph] {
			t.Errorf("no labelled %s phase event", ph)
		}
	}
}

// unitSink keeps the unit TestUnitRunAllocs measures alive.
var unitSink *lvp.Unit

// TestUnitRunAllocs gates a unit run from a cached slab, the path every
// Annotation and AnnotationStats call takes: a small constant number of
// allocations, and no more bytes than its load-order states (one per load)
// plus the unit's own tables — nothing per record.
func TestUnitRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	s := NewSuite(1)
	const name = "compress"
	tr, err := s.Trace(name, prog.PPC)
	if err != nil {
		t.Fatal(err)
	}
	slab := tr.Mem()
	const slack = 16 << 10
	if tr.Len()-slab.Len() < 4*slack {
		t.Fatalf("%s: %d records, %d loads: too few non-loads to tell per-record from per-load bytes",
			name, tr.Len(), slab.Len())
	}
	measure := func(f func()) (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	if _, err := s.AnnotationStats(name, prog.PPC, lvp.Simple); err != nil {
		t.Fatal(err) // creates the metric handles every later run reuses
	}
	for _, entries := range []int{24, 40, 48} {
		cfg := lvp.Simple
		cfg.CVUEntries = entries // a hardware identity not run yet
		_, tables := measure(func() { unitSink, _ = lvp.NewUnit(cfg) })
		mallocs, bytes := measure(func() {
			if _, err := s.AnnotationStats(name, prog.PPC, cfg); err != nil {
				t.Fatal(err)
			}
		})
		limit := uint64(slab.Len()) + tables + slack
		t.Logf("CVU %d: %d allocs, %d B (states %d B + tables %d B)", entries, mallocs, bytes, slab.Len(), tables)
		if mallocs > 64 {
			t.Errorf("CVU %d: a unit run allocated %d times, want a small constant", entries, mallocs)
		}
		if bytes > limit {
			t.Errorf("CVU %d: a unit run allocated %d B, want at most %d (states + tables + 16 KiB)", entries, bytes, limit)
		}
	}
}
