// Package lvp reproduces "Value Locality and Load Value Prediction"
// (Lipasti, Wilkerson & Shen, ASPLOS 1996) as a library.
//
// The package is a facade over the implementation packages:
//
//   - trace generation: a synthetic 17-benchmark suite written in the VLR
//     ISA, executed by a functional VM (BuildTrace, Benchmarks);
//   - value-locality measurement (MeasureLocality), paper §2;
//   - the LVP Unit — LVPT + LCT + CVU (Annotate, Simple/Constant/Limit/
//     Perfect), paper §3;
//   - cycle-level machine models of the PowerPC 620, 620+ and Alpha AXP
//     21164 with LVP integration (Simulate620, Simulate620Plus,
//     Simulate21164), paper §4. Each passes the in-memory trace and its
//     annotation to the model's single Simulate entry point, which reads
//     the trace's static rows and memory-op lanes in place;
//   - experiment drivers regenerating every table and figure of the
//     paper's evaluation (NewSuite and the exp.Suite methods), paper §6.
//
// The experiment engine can also be served over HTTP: cmd/lvpd exposes
// Suite runs as asynchronous jobs with a bounded queue, NDJSON result
// streaming, and cancellation (SERVING.md; Go client in package
// lvp/client).
//
// Quickstart:
//
//	tr, _ := lvp.BuildTrace("grep", lvp.PPC, 1)
//	res := lvp.MeasureLocality(tr, 1, 16)
//	ann, stats, _ := lvp.Annotate(tr, lvp.Simple)
//	base := lvp.Simulate620(tr, nil, "")
//	fast := lvp.Simulate620(tr, ann, "Simple")
//	speedup := float64(base.Cycles) / float64(fast.Cycles)
package lvp

import (
	"io"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/dfg"
	"lvp/internal/exp"
	"lvp/internal/locality"
	core "lvp/internal/lvp"
	"lvp/internal/obs"
	"lvp/internal/par"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// --- targets and benchmarks ---

// Target selects the code-generation flavour of the synthetic compiler.
type Target = prog.Target

// The two targets of the paper's methodology.
var (
	// PPC is the PowerPC-620-flavoured 32-bit target (AIX side).
	PPC = prog.PPC
	// AXP is the Alpha-21164-flavoured 64-bit target (OSF side).
	AXP = prog.AXP
)

// Benchmark describes one workload of the suite.
type Benchmark = bench.Benchmark

// Benchmarks returns the 17-benchmark suite in reporting order.
func Benchmarks() []Benchmark { return bench.All() }

// BenchmarkNames returns the suite's names in reporting order.
func BenchmarkNames() []string { return bench.Names() }

// --- traces ---

// Trace is a dynamic instruction trace, stored compactly: each distinct
// static instruction once, plus per-record lanes of dynamic facts. Len is
// the record count; Walk steps through the records (each one's static row
// in Static, and its Addr, Value or branch outcome on demand: what the
// timing models read), Mem returns the load and store lanes, Summarize
// counts the records by kind, Scatter turns one state per load into an
// Annotation, and Expand materializes every record (48 B each).
type Trace = trace.Trace

// Record is one dynamic instruction.
type Record = trace.Record

// Annotation carries one prediction state per trace record.
type Annotation = trace.Annotation

// PredState is the paper's four-state load annotation.
type PredState = trace.PredState

// The four prediction states (paper §5).
const (
	PredNone      = trace.PredNone
	PredIncorrect = trace.PredIncorrect
	PredCorrect   = trace.PredCorrect
	PredConstant  = trace.PredConstant
)

// BuildTrace builds and functionally executes the named benchmark at the
// given scale, returning its instruction trace.
func BuildTrace(name string, target Target, scale int) (*Trace, error) {
	b, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	p, err := b.Build(target, scale)
	if err != nil {
		return nil, err
	}
	t, _, err := vm.Run(p, 0)
	return t, err
}

// --- value locality (paper §2) ---

// LocalityResult is one depth's value-locality measurement.
type LocalityResult = locality.Result

// MeasureLocality measures load value locality at the given history depths
// using the paper's 1K-entry untagged history table.
func MeasureLocality(t *Trace, depths ...int) []LocalityResult {
	return locality.Measure(t, locality.DefaultEntries, depths...)
}

// GeneralLocalityResult measures result-value locality of all
// register-writing instructions (paper §7's general value prediction).
type GeneralLocalityResult = locality.GeneralResult

// MeasureGeneralLocality measures value locality over every register-writing
// instruction (not just loads), the headroom for §7's "speculating on values
// generated by instructions other than loads".
func MeasureGeneralLocality(t *Trace, depths ...int) []GeneralLocalityResult {
	return locality.MeasureGeneral(t, locality.DefaultEntries, depths...)
}

// --- the LVP Unit (paper §3) ---

// Config is an LVP Unit configuration (paper Table 2).
type Config = core.Config

// UnitStats aggregates LVP Unit behaviour (Tables 3 and 4).
type UnitStats = core.Stats

// The paper's four configurations.
var (
	Simple   = core.Simple
	Constant = core.Constant
	Limit    = core.Limit
	Perfect  = core.Perfect
)

// Ablation configurations: Simple with a tagged or 4-way set-associative
// LVPT (not paper exhibits; ByName/lvpd resolve them alongside the four).
var (
	SimpleTagged = core.SimpleTagged
	SimpleAssoc4 = core.SimpleAssoc4
)

// LVPT organisation styles for Config.LVPTStyle.
const (
	StyleDirect = core.StyleDirect
	StyleTagged = core.StyleTagged
	StyleAssoc  = core.StyleAssoc
)

// Configs lists the paper's configurations in Table 2 order.
func Configs() []Config { return core.Configs }

// Annotate runs the LVP Unit over a trace and annotates every load with one
// of the four prediction states.
func Annotate(t *Trace, cfg Config) (Annotation, UnitStats, error) {
	return core.Annotate(t, cfg)
}

// AnnotateGeneral extends prediction to every register-writing instruction
// (paper §7: "speculating on values generated by instructions other than
// loads"). There is no CVU in this mode; no record is marked PredConstant.
// The 620 model accepts the resulting annotation directly.
func AnnotateGeneral(t *Trace, cfg Config) (Annotation, UnitStats, error) {
	return core.AnnotateGeneral(t, cfg)
}

// Predictor is the interface for pluggable value predictors (paper §7):
// Lookup returns the predicted value for a load's PC and whether the
// predictor speaks (a decline returns 0), and Update trains it with the
// actual value.
type Predictor = core.Predictor

// NewLastValue returns the baseline last-value predictor.
func NewLastValue(entries int) Predictor { return core.NewLastValue(entries) }

// NewStride returns a two-delta stride predictor.
func NewStride(entries int) Predictor { return core.NewStride(entries) }

// NewTwoValue returns a buildable depth-2 predictor with a trained selector.
func NewTwoValue(entries int) Predictor { return core.NewTwoValue(entries) }

// NewContext returns an order-2 context predictor.
func NewContext(entries, patterns int) Predictor { return core.NewContext(entries, patterns) }

// TwoLevelConfig sizes the two-level VHT/VPT context predictor.
type TwoLevelConfig = core.TwoLevelConfig

// DefaultTwoLevel is the standard two-level geometry (1K-entry VHT, k=4,
// 4K-entry VPT, 2-bit confidence).
var DefaultTwoLevel = core.DefaultTwoLevel

// NewTwoLevel returns a two-level context predictor: a per-PC value history
// table whose hashed history signature indexes a confidence-countered value
// prediction table. Zero fields of cfg select the defaults.
func NewTwoLevel(cfg TwoLevelConfig) Predictor { return core.NewTwoLevel(cfg) }

// Family is one registered predictor family of the zoo.
type Family = core.Family

// Families returns the predictor-zoo registry in reporting order.
func Families() []Family { return core.Families() }

// NewFamilyPredictor builds a fresh predictor of the named family.
func NewFamilyPredictor(name string) (Predictor, error) { return core.NewFamilyPredictor(name) }

// ZooMeasure is one predictor's coverage/accuracy/interference measurement
// over one trace.
type ZooMeasure = core.ZooMeasure

// MeasureZoo runs a predictor over every load in the trace, separating
// coverage (hits over all loads) from accuracy (hits over the predictions
// whose Lookup spoke).
func MeasureZoo(t *Trace, p Predictor) ZooMeasure { return core.MeasureZoo(t, p) }

// MeasurePredictor reports the fraction of loads a predictor gets exactly
// right over a trace, a decline counting as a guess of 0.
func MeasurePredictor(t *Trace, p Predictor) float64 {
	m := core.MeasureZoo(t, p)
	return float64(m.Exact) / float64(max(1, m.Loads))
}

// MeasurePathPredictor reports the accuracy of a branch-history-indexed LVPT
// (paper §7's first refinement): histBits of global branch history are
// folded into the table index. histBits = 0 degenerates to last-value
// prediction.
func MeasurePathPredictor(t *Trace, entries, histBits int) float64 {
	r := core.MeasurePathAccuracy(t, entries, histBits)[0]
	return float64(r.Hits) / float64(max(1, r.Total))
}

// --- machine models (paper §4) ---

// Stats620 is the PowerPC 620/620+ simulation result.
type Stats620 = ppc620.Stats

// Stats21164 is the Alpha 21164 simulation result.
type Stats21164 = axp21164.Stats

// Simulate620 runs a (PPC-target) trace through the PowerPC 620 model.
// ann may be nil for a machine without LVP hardware; lvpName labels the run.
// It panics if a non-nil ann does not have one state per record.
func Simulate620(t *Trace, ann Annotation, lvpName string) Stats620 {
	return must(ppc620.Simulate(t, ann, ppc620.Config620(), lvpName, nil))
}

// Simulate620Plus runs a trace through the enhanced 620+ model.
// It panics if a non-nil ann does not have one state per record.
func Simulate620Plus(t *Trace, ann Annotation, lvpName string) Stats620 {
	return must(ppc620.Simulate(t, ann, ppc620.Config620Plus(), lvpName, nil))
}

// Simulate21164 runs an (AXP-target) trace through the Alpha 21164 model.
// It panics if a non-nil ann does not have one state per record.
func Simulate21164(t *Trace, ann Annotation, lvpName string) Stats21164 {
	return must(axp21164.Simulate(t, ann, axp21164.Config21164(), lvpName, nil))
}

// must unwraps an in-memory simulation, whose only possible error is an
// annotation that does not fit its trace: a caller's bug.
func must[S any](st S, err error) S {
	if err != nil {
		panic(err)
	}
	return st
}

// --- dataflow limits ---

// DataflowResult is a machine-independent critical-path analysis.
type DataflowResult = dfg.Result

// AnalyzeDataflow computes the trace's dataflow (true-dependence) limit with
// 620-class latencies. A non-nil annotation collapses correctly-predicted
// loads to zero latency, isolating the paper's "collapsing true
// dependencies" effect from machine structure. It panics if a non-nil ann
// does not have one state per record.
func AnalyzeDataflow(t *Trace, ann Annotation) DataflowResult {
	return must(dfg.Analyze(t, ann, ppc620.Config620().Latencies().Result))
}

// --- observability (OBSERVABILITY.md) ---

// Metrics is a concurrency-safe registry of named counters, gauges and
// timers; a Suite carries one in its Metrics field. A nil *Metrics and all
// handles it returns are valid no-ops.
type Metrics = obs.Registry

// NewMetrics returns a fresh metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Tracer emits structured JSONL events on its enabled channels, in the
// style of gem5 debug flags. A nil *Tracer is permanently disabled and safe
// to use.
type Tracer = obs.Tracer

// TraceChannel is a bitmask of event channels.
type TraceChannel = obs.Channel

// The trace channels (combine with |).
const (
	ChanLVPT     = obs.ChanLVPT
	ChanLCT      = obs.ChanLCT
	ChanCVU      = obs.ChanCVU
	ChanCache    = obs.ChanCache
	ChanSim      = obs.ChanSim
	ChanPipeline = obs.ChanPipeline
	ChanSpan     = obs.ChanSpan
	ChanAll      = obs.ChanAll
)

// Histogram is a lock-light log-bucketed latency histogram; registries hand
// them out by name (Metrics.Histogram) and render them in JSON snapshots and
// Prometheus exposition. A nil *Histogram is a valid no-op.
type Histogram = obs.Histogram

// NewTracer returns a tracer writing JSONL events to w for the channels in
// mask. A zero mask returns nil (the permanently-disabled tracer).
func NewTracer(w io.Writer, mask TraceChannel) *Tracer { return obs.NewTracer(w, mask) }

// ParseTraceChannels parses a comma-separated channel list
// ("lvpt,cvu", "all", "" or "none") into a mask.
func ParseTraceChannels(s string) (TraceChannel, error) { return obs.ParseChannels(s) }

// AnnotateTraced is Annotate with structured event tracing: the LVP Unit
// emits per-load events on the lvpt, lct and cvu channels. A nil tracer is
// exactly Annotate.
func AnnotateTraced(t *Trace, cfg Config, tr *Tracer) (Annotation, UnitStats, error) {
	return core.AnnotateTraced(t, cfg, tr)
}

// CacheStats is the traffic counter snapshot of one single-flight cache.
type CacheStats = par.CacheStats

// SuiteCacheStats snapshots all four of a Suite's caches; see
// Suite.CacheStats.
type SuiteCacheStats = exp.SuiteCacheStats

// --- experiments (paper §6) ---

// Suite drives full-paper experiment reproduction with caching; see the
// methods on exp.Suite (Table1, Figure1, ... Figure9, plus ablations).
// Experiment cells run on a bounded worker pool with single-flight caches
// (each trace, LVP unit run and simulation is built exactly once; the
// per-record annotation a simulation reads is scattered from its unit run
// for that simulation and not kept) and
// deterministic result merging: output is byte-identical for every worker
// count.
//
// Suite.WithContext(ctx) returns a view bound to a context for
// cancellation and timeouts; all views share the suite's caches, so
// independently-cancellable consumers coalesce their builds. That is the
// substrate of cmd/lvpd, which serves suites over HTTP as asynchronous
// jobs (see SERVING.md and the client package), and of cmd/lvpsim's
// -timeout flag.
type Suite = exp.Suite

// NewSuite returns an experiment suite at the given benchmark scale, with a
// GOMAXPROCS-sized worker pool.
func NewSuite(scale int) *Suite { return exp.NewSuite(scale) }

// NewSuiteParallel returns an experiment suite with an explicit worker-pool
// size: 0 selects the GOMAXPROCS default, 1 runs serially. Results are
// byte-identical for every value.
func NewSuiteParallel(scale, workers int) *Suite { return exp.NewSuiteParallel(scale, workers) }

// Experiment is one runnable table or figure of the evaluation.
type Experiment = exp.Experiment

// Experiments lists every experiment driver in rendering order.
func Experiments() []Experiment { return exp.Experiments() }
