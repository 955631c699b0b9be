// Package exp drives the reproduction: one driver per table and figure of
// the paper's evaluation, sharing cached traces, LVP unit runs, and machine
// simulations across experiments.
//
// Machine/trace pairing follows the paper's methodology (§5): the PowerPC
// 620 and 620+ models consume PPC-target traces (the AIX/xlc side), the
// Alpha 21164 model consumes AXP-target traces (the OSF side).
//
// The evaluation is a wide fan-out — 17 benchmarks × 2 targets × 4 LVP
// configs × 3 machine models — so every driver submits its per-benchmark
// cells to a bounded worker pool (internal/par) instead of looping inline.
// Three invariants keep the parallel run byte-identical to the serial one:
//
//  1. traces, LVP unit runs (each load's prediction state, in load order)
//     and simulations live in single-flight caches, so each is built
//     exactly once no matter how many cells request it concurrently; the
//     per-record annotation a simulation or dataflow analysis reads is
//     scattered from the cached unit run for that one consumer and not
//     kept;
//  2. drivers merge results into pre-sized, index-addressed slots (or
//     commutative integer accumulators), never by append-in-completion
//     order;
//  3. cross-benchmark reductions (means, geometric means) always run over
//     those slots in reporting order.
package exp

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/locality"
	"lvp/internal/lvp"
	"lvp/internal/obs"
	"lvp/internal/par"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// Cache keys. Scale is part of the trace key (per the engine contract:
// traces are memoized by benchmark, target, scale) even though it is
// currently fixed per Suite, so a future multi-scale suite cannot alias.
type traceKey struct {
	name   string
	target string
	scale  int
}

// annKey memoizes unit runs by the full Config value with its Name cleared
// (hwConfig): two configs that share a name can never collide, and two that
// differ only in name share one run.
type annKey struct {
	name   string
	target string
	scale  int
	cfg    lvp.Config
}

// hwConfig is cfg's hardware identity: the configuration with its Name
// cleared. The annotation and simulation caches key by it, and stamp the
// requested name back onto what they return, so a sweep point equal to a
// named configuration (LVPT 1024 ≡ Simple) reuses that configuration's run.
func hwConfig(cfg lvp.Config) lvp.Config {
	cfg.Name = ""
	return cfg
}

// predSource is where a simulation's value predictions come from.
type predSource uint8

const (
	predNone  predSource = iota // no value-prediction hardware
	predLoads                   // the LVP unit's per-load annotation
	predAll                     // every register result (general value prediction)
)

// simKey memoizes simulations by the full machine configuration, name
// included (it is what Stats.Machine reports), so two machines that differ
// in any parameter never share a run. cfg is the LVP configuration's
// hardware identity (hwConfig), zero under predNone.
type simKey[M comparable] struct {
	name string
	mc   M
	cfg  lvp.Config
	pred predSource
}

// zooKey memoizes predictor-zoo cells by benchmark and family name (a
// family name fully determines the predictor geometry).
type zooKey struct {
	name   string
	family string
	scale  int
}

// unitRun is one cached LVP unit run: its statistics plus every load's
// prediction state in load order, from which each Annotation call scatters
// the per-record form — so one run serves both Annotation and
// AnnotationStats callers, whichever comes first.
type unitRun struct {
	st     lvp.Stats
	states []trace.PredState
}

// Suite generates and caches everything the experiments need.
type Suite struct {
	// Scale multiplies benchmark run lengths (1 = default).
	Scale int
	// MaxSteps bounds functional execution per benchmark.
	MaxSteps int
	// Workers bounds the experiment fan-out; <= 0 selects the
	// GOMAXPROCS-derived default. 1 runs serially. Output is
	// byte-identical for every value.
	Workers int
	// ZooFamilies restricts the predictor-zoo sweep to the named
	// families (lvpsim -zoo); empty selects every registered family.
	// Output stays deterministic for any selection.
	ZooFamilies []string

	// Metrics receives pipeline telemetry: per-phase build timers,
	// LVPT/LCT/CVU and machine-model counters, worker-pool occupancy.
	// NewSuite installs a fresh registry; nil disables collection (a
	// nil registry's metric handles are no-ops). Metrics never affect
	// experiment output.
	Metrics *obs.Registry
	// Tracer, when non-nil, emits structured events from every pipeline
	// layer on its enabled channels (lvpt, lct, cvu, cache, sim,
	// pipeline). Tracing never affects experiment output either — only
	// what is emitted alongside it.
	Tracer *obs.Tracer

	// ctx, when non-nil, cancels the suite's fan-outs and cache builds;
	// nil means Background. Set via WithContext so several views of one
	// suite (sharing caches) can run under different lifetimes.
	ctx context.Context

	// caches is shared by every WithContext view of the suite, so
	// traces, unit runs and simulations are built once across all
	// concurrent jobs regardless of which view requested them.
	caches *suiteCaches
}

// suiteCaches is the shared single-flight memo state behind a Suite and all
// of its WithContext views.
type suiteCaches struct {
	traces par.Cache[traceKey, *trace.Trace]
	locs   par.Cache[traceKey, []locality.Result]
	runs   par.Cache[annKey, unitRun]
	s620   par.Cache[simKey[ppc620.Config], ppc620.Stats]
	s164   par.Cache[simKey[axp21164.Config], axp21164.Stats]
	zoo    par.Cache[zooKey, ZooCell]
}

// NewSuite returns a Suite at the given scale (values below 1 are clamped)
// with the default worker-pool size.
func NewSuite(scale int) *Suite {
	return NewSuiteParallel(scale, 0)
}

// NewSuiteParallel returns a Suite at the given scale running its
// experiment fan-out on a bounded pool of `workers` goroutines (<= 0
// selects the GOMAXPROCS default, 1 is serial).
func NewSuiteParallel(scale, workers int) *Suite {
	if scale < 1 {
		scale = 1
	}
	return &Suite{
		Scale:    scale,
		MaxSteps: 200_000_000,
		Workers:  workers,
		Metrics:  obs.NewRegistry(),
		caches:   &suiteCaches{},
	}
}

// WithContext returns a view of the suite whose fan-outs and cache builds
// are cancelled when ctx is done. The view shares the suite's caches,
// metrics and tracer; only the lifetime differs, so concurrent jobs can run
// the same suite under independent deadlines. Cancellation stops work
// between cells (a cell already simulating runs to completion) and is
// reported as ctx's error; cancelled builds are never cached
// (par.Cache.GetCtx), so a later run under a live context recomputes them.
func (s *Suite) WithContext(ctx context.Context) *Suite {
	view := *s
	view.ctx = ctx
	return &view
}

// context resolves the suite's lifetime; nil means Background.
func (s *Suite) context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// workers resolves the effective pool size.
func (s *Suite) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return par.DefaultWorkers()
}

// cacheState resolves the shared memo state, guarding against Suites built
// around NewSuite/NewSuiteParallel.
func (s *Suite) cacheState() *suiteCaches {
	if s.caches == nil {
		panic("exp: Suite must be created with NewSuite or NewSuiteParallel")
	}
	return s.caches
}

// Trace builds (or returns the cached) trace for one benchmark and target.
// Concurrent callers for the same trace share a single build.
func (s *Suite) Trace(name string, target prog.Target) (*trace.Trace, error) {
	ctx := s.context()
	return s.cacheState().traces.GetCtx(ctx, traceKey{name, target.Name, s.Scale}, func() (*trace.Trace, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		bm, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		p, err := bm.Build(target, s.Scale)
		if err != nil {
			return nil, fmt.Errorf("exp: building %s/%s: %w", name, target.Name, err)
		}
		t, _, err := vm.Run(p, s.MaxSteps)
		if err != nil {
			return nil, fmt.Errorf("exp: running %s/%s: %w", name, target.Name, err)
		}
		s.Metrics.Counter("trace.records").Add(int64(t.Len()))
		s.Metrics.Gauge("trace.resident_bytes").Add(t.ResidentBytes())
		s.finishPhase("trace", start,
			slog.String("bench", name), slog.String("target", target.Name),
			slog.Int("records", t.Len()))
		return t, nil
	})
}

// Locality returns the load value locality of one benchmark's trace on one
// target under the paper's 1K-entry history table (locality.Measure): [0]
// at history depth 1 and [1] at depth 16. Both come from one walk of the
// trace, taken once per trace and shared by every driver that reports
// locality (Figures 1 and 2, the general-value-locality and predictor
// studies). The walk is timed as the locality phase. The result is shared:
// read only.
func (s *Suite) Locality(name string, target prog.Target) ([]locality.Result, error) {
	ctx := s.context()
	return s.cacheState().locs.GetCtx(ctx, traceKey{name, target.Name, s.Scale}, func() ([]locality.Result, error) {
		t, err := s.Trace(name, target)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		rs := locality.Measure(t, locality.DefaultEntries, 1, 16)
		s.Metrics.Counter("locality.records").Add(int64(t.Len()))
		s.finishPhase("locality", start,
			slog.String("bench", name), slog.String("target", target.Name))
		return rs, nil
	})
}

// finishPhase records one completed pipeline build: its wall time under the
// phase.<phase> timer and the phase.<phase>.wall_ns latency histogram, a
// progress.<phase> completion count, a span on the suite context's trace
// scope (parented under the requesting job's cell span when one is live),
// and — with the pipeline trace channel enabled — one event carrying the
// cell's identity and duration.
func (s *Suite) finishPhase(phase string, start time.Time, attrs ...slog.Attr) {
	elapsed := time.Since(start)
	s.Metrics.Timer("phase." + phase).Observe(elapsed)
	s.Metrics.Histogram("phase." + phase + ".wall_ns").Observe(int64(elapsed))
	s.Metrics.Counter("progress." + phase).Inc()
	obs.CompleteSpan(s.context(), phase, start, attrs...)
	if s.Tracer.Enabled(obs.ChanPipeline) {
		attrs = append(attrs, slog.String("phase", phase),
			slog.Int64("wall_us", elapsed.Microseconds()))
		s.Tracer.Emit(obs.ChanPipeline, "phase-done", attrs...)
	}
}

// runUnit returns the cached LVP unit run for one benchmark/target/config.
// The unit runs exactly once per hardware identity across all concurrent
// consumers, over the trace's memory-op lanes, under the identity's label
// (runConfig) rather than the requester's name.
func (s *Suite) runUnit(name string, target prog.Target, cfg lvp.Config) (unitRun, error) {
	ctx := s.context()
	return s.cacheState().runs.GetCtx(ctx, annKey{name, target.Name, s.Scale, hwConfig(cfg)}, func() (unitRun, error) {
		t, err := s.Trace(name, target)
		if err != nil {
			return unitRun{}, err
		}
		if err := ctx.Err(); err != nil {
			return unitRun{}, err
		}
		cfg := runConfig(cfg)
		start := time.Now()
		slab := t.Mem()
		states := make([]trace.PredState, slab.Len())
		st, err := lvp.AnnotateSlab(slab, cfg, s.Tracer, states)
		if err != nil {
			return unitRun{}, fmt.Errorf("annotating %s/%s: %w", name, target.Name, err)
		}
		s.recordAnnStats(st)
		s.Metrics.Gauge("annotate.resident_bytes").Add(int64(len(states)))
		s.finishPhase("annotate", start,
			slog.String("bench", name), slog.String("target", target.Name),
			slog.String("config", cfg.Name))
		return unitRun{st, states}, nil
	})
}

// Annotation returns the per-record LVP annotation and unit stats for one
// benchmark/target/config — the form the machine models and the dataflow
// analysis consume. It is scattered from the cached unit run on every call
// and not kept, so the unit never re-runs for it and only its one consumer
// holds it.
func (s *Suite) Annotation(name string, target prog.Target, cfg lvp.Config) (trace.Annotation, lvp.Stats, error) {
	r, err := s.runUnit(name, target, cfg)
	if err != nil {
		return nil, lvp.Stats{}, err
	}
	t, err := s.Trace(name, target)
	if err != nil {
		return nil, lvp.Stats{}, err
	}
	start := time.Now()
	ann := t.Scatter(r.states)
	s.Metrics.Timer("phase.walk").Observe(time.Since(start))
	s.Metrics.Counter("walk.records").Add(int64(t.Len()))
	r.st.Config = cfg.Name
	return ann, r.st, nil
}

// AnnotationStats returns the LVP Unit counters for one
// benchmark/target/config (Tables 3 and 4). It shares the unit-run cache
// with Annotation but never scatters a per-record annotation.
func (s *Suite) AnnotationStats(name string, target prog.Target, cfg lvp.Config) (lvp.Stats, error) {
	r, err := s.runUnit(name, target, cfg)
	r.st.Config = cfg.Name
	return r.st, err
}

// Sim620 simulates one benchmark on a 620-class machine (Config620,
// Config620Plus or any variant of them) with the given LVP config; cfg ==
// nil means no LVP hardware.
func (s *Suite) Sim620(name string, mc ppc620.Config, cfg *lvp.Config) (ppc620.Stats, error) {
	st, err := s.sim620(name, mc, cfg, predLoads)
	st.LVPConfig = lvpLabel(cfg)
	return st, err
}

// sim620 is Sim620 with the prediction source chosen: predAll runs the
// general value predictor built from cfg (the gvp study).
func (s *Suite) sim620(name string, mc ppc620.Config, cfg *lvp.Config, pred predSource) (ppc620.Stats, error) {
	return simulate(s, &s.cacheState().s620, model620, name, mc, mc.Name, cfg, pred)
}

// Sim21164 simulates one benchmark on a 21164-class machine (Config21164
// or a variant of it) with the given LVP config (nil = no LVP hardware).
func (s *Suite) Sim21164(name string, mc axp21164.Config, cfg *lvp.Config) (axp21164.Stats, error) {
	st, err := simulate(s, &s.cacheState().s164, model21164, name, mc, mc.Name, cfg, predLoads)
	st.LVPConfig = lvpLabel(cfg)
	return st, err
}

// simModel is one timing model as the suite runs it.
type simModel[M comparable, S any] struct {
	phase    string      // phase timer, progress counter and span name
	target   prog.Target // the trace target the model consumes
	simulate func(*trace.Trace, trace.Annotation, M, string, *obs.Tracer) (S, error)
	record   func(*Suite, S) // flushes one run's counters into Metrics
}

var (
	model620   = simModel[ppc620.Config, ppc620.Stats]{"sim620", prog.PPC, ppc620.Simulate, (*Suite).record620Stats}
	model21164 = simModel[axp21164.Config, axp21164.Stats]{"sim21164", prog.AXP, axp21164.Simulate, (*Suite).record164Stats}
)

// simulate is the one place a timing model runs: the cached simulation of
// one benchmark on machine mc (named machine), with predictions from pred
// under cfg (nil = no LVP hardware). The shared run is labelled by cfg's
// hardware identity (runConfig); callers stamp the requested name back.
func simulate[M comparable, S any](s *Suite, c *par.Cache[simKey[M], S], m simModel[M, S],
	name string, mc M, machine string, cfg *lvp.Config, pred predSource) (S, error) {
	key := simKey[M]{name: name, mc: mc}
	var run lvp.Config
	if cfg != nil {
		key.cfg, key.pred, run = hwConfig(*cfg), pred, runConfig(*cfg)
	}
	ctx := s.context()
	return c.GetCtx(ctx, key, func() (S, error) {
		var zero S
		t, err := s.Trace(name, m.target)
		if err != nil {
			return zero, err
		}
		ann, label, err := s.predictions(t, m.target, name, run, key.pred)
		if err != nil {
			return zero, err
		}
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		start := time.Now()
		st, err := m.simulate(t, ann, mc, label, s.Tracer)
		if err != nil {
			return zero, err
		}
		m.record(s, st)
		s.finishPhase(m.phase, start,
			slog.String("bench", name), slog.String("machine", machine),
			slog.String("config", label))
		return st, nil
	})
}

// predictions returns the annotation a simulation consumes and the label
// it runs under. The load annotation is scattered from the suite's cached
// unit run; the general (all-result) annotation is built here. Either is
// built for its one simulation and not kept, and its walk of the trace is
// charged to the walk phase.
func (s *Suite) predictions(t *trace.Trace, target prog.Target, name string, run lvp.Config, pred predSource) (trace.Annotation, string, error) {
	switch pred {
	case predLoads:
		ann, _, err := s.Annotation(name, target, run)
		return ann, run.Name, err
	case predAll:
		start := time.Now()
		ann, _, err := lvp.AnnotateGeneral(t, run)
		s.Metrics.Timer("phase.walk").Observe(time.Since(start))
		s.Metrics.Counter("walk.records").Add(int64(t.Len()))
		return ann, "GVP-" + run.Name, err
	}
	return nil, lvpLabel(nil), nil
}

// lvpLabel is the LVPConfig label a simulation of cfg carries.
func lvpLabel(cfg *lvp.Config) string {
	if cfg == nil {
		return "none"
	}
	return cfg.Name
}

// forEachBench runs fn for every benchmark on the suite's worker pool and
// returns the lowest-index error.
func (s *Suite) forEachBench(fn func(b bench.Benchmark) error) error {
	return s.forEachBenchIdx(func(_ int, b bench.Benchmark) error { return fn(b) })
}

// forEachBenchIdx is forEachBench plus the benchmark's reporting-order
// index, so drivers can merge results into pre-sized slots without locking:
// each cell owns exactly one slot, and downstream reductions read the slots
// in reporting order regardless of completion order.
func (s *Suite) forEachBenchIdx(fn func(i int, b bench.Benchmark) error) error {
	all := bench.All()
	return s.forEachIdx(len(all), func(i int) error {
		return fn(i, all[i])
	})
}

// forEachIdx runs fn over [0, n) on the suite's worker pool with the
// standard occupancy meter — the raw fan-out under forEachBenchIdx, for
// drivers whose task grid is wider than one benchmark dimension (the zoo
// sweep's family × benchmark cells).
func (s *Suite) forEachIdx(n int, fn func(i int) error) error {
	var meter par.Meter
	if s.Metrics != nil {
		// The pool.busy gauge tracks live worker occupancy; its
		// high-water mark reports how much of the pool the fan-out
		// actually used.
		meter = s.Metrics.Gauge("pool.busy")
	}
	return par.ForEach(s.context(), s.workers(), n, meter, fn)
}

// column gathers f of every row in reporting order, the input of a
// cross-benchmark reduction (invariant 3 above).
func column[R any](rows []R, f func(R) float64) []float64 {
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = f(r)
	}
	return xs
}
