package lvp_test

// One testing.B benchmark per table and figure of the paper's evaluation:
// each regenerates its experiment from scratch (trace generation, LVP
// annotation, cycle simulation) and reports the headline number as a custom
// metric, so `go test -bench=.` both regenerates the results and times the
// harness. Micro-benchmarks for the hot components follow.

import (
	"io"
	"testing"

	"lvp"
	"lvp/internal/exp"
	core "lvp/internal/lvp"
	"lvp/internal/ppc620"
)

// --- experiment-engine benchmarks: serial vs parallel ---

// runAllExperiments regenerates every registered experiment on a fresh
// suite with the given worker count, discarding the rendered output. Each
// iteration starts from cold caches, so the measurement covers the full
// fan-out: trace generation, annotation, simulation and merge.
func runAllExperiments(b *testing.B, workers int) {
	b.Helper()
	for b.Loop() {
		s := exp.NewSuiteParallel(1, workers)
		for _, e := range exp.Experiments() {
			if err := e.Run(s, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExpAllSerial is the baseline: the whole `-exp all` run with a
// single worker.
func BenchmarkExpAllSerial(b *testing.B) {
	runAllExperiments(b, 1)
}

// BenchmarkExpAllParallel is the same run on a GOMAXPROCS-sized pool.
// Compare with BenchmarkExpAllSerial (benchstat or the raw ns/op) to see
// the engine's speedup; on a multi-core machine the ratio tracks core
// count until the longest single simulation dominates.
func BenchmarkExpAllParallel(b *testing.B) {
	runAllExperiments(b, 0)
}

// BenchmarkExpAllParallel4 pins four workers for cross-machine
// comparability of the headline speedup figure.
func BenchmarkExpAllParallel4(b *testing.B) {
	runAllExperiments(b, 4)
}

func BenchmarkTable1(b *testing.B) {
	for b.Loop() {
		s := exp.NewSuite(1)
		r, err := s.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	var gm float64
	for b.Loop() {
		s := exp.NewSuite(1)
		r, err := s.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, row := range r.Rows {
			sum += row.PPCD1
		}
		gm = sum / float64(len(r.Rows))
	}
	b.ReportMetric(gm, "mean-d1-locality-%")
}

func BenchmarkFig2(b *testing.B) {
	for b.Loop() {
		s := exp.NewSuite(1)
		if _, err := s.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for b.Loop() {
		s := exp.NewSuite(1)
		if _, err := s.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	var mean float64
	for b.Loop() {
		s := exp.NewSuite(1)
		r, err := s.Table4()
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, row := range r.PPC {
			sum += row.Const
		}
		mean = 100 * sum / float64(len(r.PPC))
	}
	b.ReportMetric(mean, "mean-const-%")
}

func BenchmarkFig6(b *testing.B) {
	var gmSimple float64
	for b.Loop() {
		s := exp.NewSuite(1)
		r, err := s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		gmSimple = r.GMPPC[0]
	}
	b.ReportMetric(gmSimple, "620-Simple-GM-speedup")
}

func BenchmarkTable6(b *testing.B) {
	var gmPlus float64
	for b.Loop() {
		s := exp.NewSuite(1)
		r, err := s.Table6()
		if err != nil {
			b.Fatal(err)
		}
		gmPlus = r.GMPlus
	}
	b.ReportMetric(gmPlus, "620plus-GM-speedup")
}

func BenchmarkFig7(b *testing.B) {
	for b.Loop() {
		s := exp.NewSuite(1)
		if _, err := s.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for b.Loop() {
		s := exp.NewSuite(1)
		if _, err := s.Figure8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for b.Loop() {
		s := exp.NewSuite(1)
		if _, err := s.Figure9(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (DESIGN.md extras) ---

func BenchmarkAblationLVPTSweep(b *testing.B) {
	for b.Loop() {
		s := exp.NewSuite(1)
		if _, err := s.LVPTSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPredictors(b *testing.B) {
	for b.Loop() {
		s := exp.NewSuite(1)
		if _, err := s.PredictorStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- component micro-benchmarks ---

// BenchmarkTraceGeneration measures functional-simulation throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	var instrs int
	for b.Loop() {
		tr, err := lvp.BuildTrace("xlisp", lvp.PPC, 1)
		if err != nil {
			b.Fatal(err)
		}
		instrs = tr.Len()
	}
	b.ReportMetric(float64(instrs), "instrs/op")
}

func BenchmarkAnnotateSimple(b *testing.B) {
	tr, err := lvp.BuildTrace("xlisp", lvp.PPC, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for b.Loop() {
		if _, _, err := lvp.Annotate(tr, lvp.Simple); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "instrs/op")
}

// --- observability overhead (OBSERVABILITY.md) ---
//
// The instrumentation contract is <5% annotation overhead with tracing
// disabled. Compare these three against BenchmarkAnnotateSimple
// (benchstat, or raw ns/op): the nil-tracer and disabled-channel variants
// must stay within noise of it; only the enabled variant may cost.

// BenchmarkAnnotateNilTracer runs the traced annotation path with a nil
// tracer — the default for every cached Suite build without -trace.
func BenchmarkAnnotateNilTracer(b *testing.B) {
	tr, err := lvp.BuildTrace("xlisp", lvp.PPC, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for b.Loop() {
		if _, _, err := lvp.AnnotateTraced(tr, lvp.Simple, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "instrs/op")
}

// BenchmarkAnnotateDisabledChannels runs with a live tracer whose LVP
// channels are all off, so every per-load emission reduces to one masked
// bitmask test.
func BenchmarkAnnotateDisabledChannels(b *testing.B) {
	tr, err := lvp.BuildTrace("xlisp", lvp.PPC, 1)
	if err != nil {
		b.Fatal(err)
	}
	tracer := lvp.NewTracer(io.Discard, lvp.ChanPipeline)
	b.ResetTimer()
	for b.Loop() {
		if _, _, err := lvp.AnnotateTraced(tr, lvp.Simple, tracer); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "instrs/op")
}

// BenchmarkAnnotateTracedEnabled is the worst case: every LVP channel
// enabled, events serialized to io.Discard. This is expected to be slower —
// it bounds what -trace lvpt,lct,cvu costs, not the default path.
func BenchmarkAnnotateTracedEnabled(b *testing.B) {
	tr, err := lvp.BuildTrace("xlisp", lvp.PPC, 1)
	if err != nil {
		b.Fatal(err)
	}
	tracer := lvp.NewTracer(io.Discard, lvp.ChanLVPT|lvp.ChanLCT|lvp.ChanCVU)
	b.ResetTimer()
	for b.Loop() {
		if _, _, err := lvp.AnnotateTraced(tr, lvp.Simple, tracer); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "instrs/op")
}

func BenchmarkSimulate620(b *testing.B) {
	tr, err := lvp.BuildTrace("xlisp", lvp.PPC, 1)
	if err != nil {
		b.Fatal(err)
	}
	ann, _, err := lvp.Annotate(tr, lvp.Simple)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	cycles := 0
	for b.Loop() {
		st, err := ppc620.Simulate(tr, ann, ppc620.Config620(), "Simple", nil)
		if err != nil || st.Cycles == 0 {
			b.Fatal("no cycles")
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(tr.Len()), "instrs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/cycle")
}

func BenchmarkSimulate21164(b *testing.B) {
	tr, err := lvp.BuildTrace("xlisp", lvp.AXP, 1)
	if err != nil {
		b.Fatal(err)
	}
	ann, _, err := lvp.Annotate(tr, lvp.Simple)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	cycles := 0
	for b.Loop() {
		st := lvp.Simulate21164(tr, ann, "Simple")
		if st.Cycles == 0 {
			b.Fatal("no cycles")
		}
		cycles = st.Cycles
	}
	b.ReportMetric(float64(tr.Len()), "instrs/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/cycle")
}

func BenchmarkLVPTAccess(b *testing.B) {
	t := core.NewLVPT(1024, 1)
	pc, v := uint64(0x4000), uint64(0)
	for b.Loop() {
		t.Predict(pc)
		t.Update(pc, v)
		pc += 4
		v++
	}
}

func BenchmarkCVULookup(b *testing.B) {
	c := core.NewCVU(128)
	for i := 0; i < 128; i++ {
		c.Insert(uint64(0x1000+i*8), i)
	}
	for b.Loop() {
		c.Lookup(0x1000, 0)
		c.Lookup(0xFFFF, 5)
	}
}

func BenchmarkExtensionGVL(b *testing.B) {
	for b.Loop() {
		s := exp.NewSuite(1)
		if _, err := s.GeneralValueLocality(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionPathLVP(b *testing.B) {
	for b.Loop() {
		s := exp.NewSuite(1)
		if _, err := s.PathLVPStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMAF(b *testing.B) {
	for b.Loop() {
		s := exp.NewSuite(1)
		if _, err := s.MAFAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLimitStudy(b *testing.B) {
	for b.Loop() {
		s := exp.NewSuite(1)
		if _, err := s.DataflowLimits(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionGVP(b *testing.B) {
	for b.Loop() {
		s := exp.NewSuite(1)
		if _, err := s.GVPStudy(); err != nil {
			b.Fatal(err)
		}
	}
}
