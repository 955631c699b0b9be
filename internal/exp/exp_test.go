package exp

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
)

// The suite is shared across tests: experiments cache traces and sims, so
// ordering does not matter and the whole file stays fast.
var testSuite = NewSuite(1)

func TestTable1AllBenchmarks(t *testing.T) {
	r, err := testSuite.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(bench.All()) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(bench.All()))
	}
	for _, row := range r.Rows {
		if row.Name == "" || row.AXPInstr == 0 || row.PPCInstr == 0 {
			t.Errorf("incomplete row: %+v", row)
		}
		if row.AXPLoads <= 0 || row.AXPLoads >= row.AXPInstr {
			t.Errorf("%s: implausible load count %d/%d", row.Name, row.AXPLoads, row.AXPInstr)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "grep") {
		t.Error("render missing benchmark rows")
	}
}

func TestFigure1Shape(t *testing.T) {
	r, err := testSuite.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig1Row{}
	for _, row := range r.Rows {
		byName[row.Name] = row
		// Deeper history can never reduce locality.
		if row.AXPD16 < row.AXPD1-0.01 || row.PPCD16 < row.PPCD1-0.01 {
			t.Errorf("%s: depth-16 < depth-1 (%v)", row.Name, row)
		}
		if row.AXPD1 < 0 || row.AXPD1 > 100 {
			t.Errorf("%s: locality out of range: %v", row.Name, row)
		}
	}
	// The paper's headline shape: cjpeg, swm256 and tomcatv are poor;
	// most integer codes are ~40%+ at depth 1 and >80% at depth 16.
	for _, poor := range []string{"cjpeg", "swm256", "tomcatv"} {
		if byName[poor].PPCD1 > 35 {
			t.Errorf("%s should have poor locality, got %.1f%%", poor, byName[poor].PPCD1)
		}
	}
	for _, good := range []string{"grep", "gperf", "eqntott", "sc"} {
		if byName[good].PPCD1 < 40 {
			t.Errorf("%s should have good depth-1 locality, got %.1f%%", good, byName[good].PPCD1)
		}
		if byName[good].PPCD16 < 80 {
			t.Errorf("%s should exceed 80%% at depth 16, got %.1f%%", good, byName[good].PPCD16)
		}
	}
}

func TestFigure2AddressesBeatData(t *testing.T) {
	r, err := testSuite.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate the paper's Figure 2 finding: address loads tend to be
	// more predictable than data loads. Check on the suite average of
	// benchmarks that actually have address loads.
	var instSum, dataSum float64
	var n int
	for _, row := range r.Rows {
		const instAddr, intData = 3, 2 // isa.LoadInstAddr, isa.LoadIntData
		if row.Share[instAddr] > 0.01 && row.Share[intData] > 0.01 {
			instSum += row.Pct[instAddr][0]
			dataSum += row.Pct[intData][0]
			n++
		}
	}
	if n == 0 {
		t.Fatal("no benchmarks with both instruction-address and int-data loads")
	}
	if instSum/float64(n) <= dataSum/float64(n) {
		t.Errorf("instruction-address loads (%.1f%%) should beat int data (%.1f%%) on average",
			instSum/float64(n), dataSum/float64(n))
	}
}

func TestTable3RatesPlausible(t *testing.T) {
	r, err := testSuite.Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]Table3Row{r.AXP, r.PPC} {
		for _, row := range rows {
			for _, v := range []float64{row.SimpleUnpred, row.SimplePred, row.LimitUnpred, row.LimitPred} {
				if v < 0 || v > 1 {
					t.Errorf("%s: rate out of range: %+v", row.Name, row)
				}
			}
		}
	}
}

func TestTable4ShapeMatchesPaper(t *testing.T) {
	r, err := testSuite.Table4()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table4Row{}
	for _, row := range r.PPC {
		byName[row.Name] = row
	}
	// Paper Table 4: tomcatv ~0-1%, quick ~0%, cjpeg tiny; compress,
	// sc, grep substantial.
	if byName["tomcatv"].Const > 0.05 {
		t.Errorf("tomcatv constants = %v, want ~0", byName["tomcatv"].Const)
	}
	if byName["quick"].Const > 0.10 {
		t.Errorf("quick constants = %v, want small", byName["quick"].Const)
	}
	for _, strong := range []string{"compress", "sc", "grep"} {
		if byName[strong].Const < 0.10 {
			t.Errorf("%s constants = %v, want substantial", strong, byName[strong].Const)
		}
	}
	// The Constant configuration (bigger CVU, 1-bit LCT) should never
	// identify materially fewer constants than Simple.
	for _, row := range r.PPC {
		if row.Const < row.Simple-0.02 {
			t.Errorf("%s: Constant config (%v) below Simple (%v)", row.Name, row.Const, row.Simple)
		}
	}
}

func TestFigure6HeadlineResults(t *testing.T) {
	r, err := testSuite.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	// Paper headline: measurable average gains on both machines, larger
	// on the in-order 21164 than the out-of-order 620 (§6.1), and the
	// Perfect configuration bounds the realistic ones.
	if r.GMPPC[0] < 1.0 {
		t.Errorf("620 Simple GM = %.3f, want >= 1.0", r.GMPPC[0])
	}
	if r.GMAXP[0] < 1.01 {
		t.Errorf("21164 Simple GM = %.3f, want measurable gain", r.GMAXP[0])
	}
	if r.GMAXP[0] < r.GMPPC[0] {
		t.Errorf("21164 (%.3f) should gain more than the 620 (%.3f)", r.GMAXP[0], r.GMPPC[0])
	}
	if r.GMPPC[3] < r.GMPPC[0] {
		t.Errorf("Perfect GM (%.3f) must bound Simple (%.3f)", r.GMPPC[3], r.GMPPC[0])
	}
	// No benchmark may be catastrophically slowed (paper: mispredict
	// penalty kept small by the LCT).
	for _, row := range r.Rows {
		for _, sp := range row.PPC {
			if sp < 0.90 {
				t.Errorf("%s: 620 slowdown %.3f below sanity bound", row.Name, sp)
			}
		}
	}
}

func TestTable6MoreParallelismHelpsLVP(t *testing.T) {
	r, err := testSuite.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if r.GMPlus < 1.0 {
		t.Errorf("620+ GM speedup = %.3f, want >= 1", r.GMPlus)
	}
	// Paper §6.2: the 620+'s increased machine parallelism more closely
	// matches LVP's exposed parallelism — its Limit/Perfect gains exceed
	// the base 620's.
	f6, err := testSuite.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if r.GMLVP[2] < f6.GMPPC[2]*0.95 {
		t.Errorf("620+ Limit GM (%.3f) unexpectedly far below 620's (%.3f)",
			r.GMLVP[2], f6.GMPPC[2])
	}
}

func TestFigure7Distribution(t *testing.T) {
	r, err := testSuite.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	for mi := range r.Pct {
		for ci := range r.Pct[mi] {
			sum := 0.0
			for _, v := range r.Pct[mi][ci] {
				sum += v
			}
			if sum < 99 || sum > 101 {
				t.Errorf("machine %d config %d: distribution sums to %.1f%%", mi, ci, sum)
			}
		}
	}
}

func TestFigure8WaitsReduced(t *testing.T) {
	r, err := testSuite.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	// Under Perfect LVP, dependency waits must drop below baseline for
	// the units whose operands are predicted (paper Figure 8).
	const scfx, lsu = 0, 3 // ppc620.SCFX, ppc620.LSU
	perfIdx := 3
	if r.Norm[0][perfIdx][scfx] >= 100 || r.Norm[0][perfIdx][lsu] >= 100 {
		t.Errorf("Perfect LVP did not reduce SCFX/LSU waits: %v", r.Norm[0][perfIdx])
	}
}

func TestFigure9ConstantReducesConflicts(t *testing.T) {
	r, err := testSuite.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate direction: the Constant configuration (biggest CVU)
	// should not systematically increase conflicts relative to Simple.
	if r.Mean[0][2] > r.Mean[0][1]*1.25+0.1 {
		t.Errorf("Constant mean conflicts (%.3f%%) far above Simple (%.3f%%)",
			r.Mean[0][2], r.Mean[0][1])
	}
}

func TestAblations(t *testing.T) {
	sweep, err := testSuite.LVPTSweep([]int{256, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Coverage[1] < sweep.Coverage[0] {
		t.Errorf("bigger LVPT should not reduce coverage: %v", sweep.Coverage)
	}
	cvu, err := testSuite.CVUSweep([]int{8, 256})
	if err != nil {
		t.Fatal(err)
	}
	if cvu.ConstRate[1] < cvu.ConstRate[0] {
		t.Errorf("bigger CVU should not reduce constants: %v", cvu.ConstRate)
	}
	lct, err := testSuite.LCTBitsSweep([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if lct.Accuracy[0] <= 0 || lct.Accuracy[1] <= 0 {
		t.Errorf("LCT sweep produced zero accuracy: %v", lct.Accuracy)
	}
}

func TestPredictorStudy(t *testing.T) {
	r, err := testSuite.PredictorStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(bench.All()) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Depth-1 locality approximately upper-bounds last-value
		// accuracy (same table geometry and replacement; the predictor
		// can additionally hit zero-valued loads on cold zero-filled
		// entries, hence the small tolerance).
		if row.LastValue > row.Locality1+1.0 {
			t.Errorf("%s: last-value %.1f%% exceeds its locality bound %.1f%%",
				row.Name, row.LastValue, row.Locality1)
		}
	}
}

func TestSuiteCaching(t *testing.T) {
	s := NewSuite(1)
	t1, err := s.Trace("quick", prog.AXP)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Trace("quick", prog.AXP)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("trace not cached")
	}
	// The per-record annotation is not cached, but the unit run behind it
	// is: two Annotation calls and a 620 simulation that reads the same
	// annotation run the unit once, and each call gets its own equal copy.
	a1, _, err := s.Annotation("quick", prog.PPC, lvp.Simple)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := s.Annotation("quick", prog.PPC, lvp.Simple)
	if err != nil {
		t.Fatal(err)
	}
	if &a1[0] == &a2[0] || !slices.Equal(a1, a2) {
		t.Error("Annotation calls share one annotation, or differ")
	}
	cfg := lvp.Simple
	if _, err := s.Sim620("quick", ppc620.Config620(), &cfg); err != nil {
		t.Fatal(err)
	}
	if n := s.Metrics.Counter("progress.annotate").Value(); n != 1 {
		t.Errorf("progress.annotate = %d, want 1", n)
	}
}

func TestSuiteUnknownBenchmark(t *testing.T) {
	s := NewSuite(1)
	if _, err := s.Trace("nope", prog.AXP); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestGeneralValueLocality(t *testing.T) {
	r, err := testSuite.GeneralValueLocality()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]GVLRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
		if row.AllD16 < row.AllD1-0.01 {
			t.Errorf("%s: depth-16 below depth-1: %+v", row.Name, row)
		}
	}
	// cjpeg's ALU results are far more predictable than its loads — the
	// §7 motivation for predicting non-load values.
	if byName["cjpeg"].AllD1 < byName["cjpeg"].LoadsD1+5 {
		t.Errorf("cjpeg: all-result locality (%.1f%%) should beat load locality (%.1f%%)",
			byName["cjpeg"].AllD1, byName["cjpeg"].LoadsD1)
	}
}

func TestPathLVPStudy(t *testing.T) {
	r, err := testSuite.PathLVPStudy([]int{0, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Mean) != 2 {
		t.Fatalf("mean columns = %d", len(r.Mean))
	}
	// On average, folding branch history in should not hurt, and the
	// switch-heavy compiler benchmarks should gain noticeably.
	if r.Mean[1] < r.Mean[0]-1 {
		t.Errorf("ghr=8 mean (%.1f%%) fell below ghr=0 (%.1f%%)", r.Mean[1], r.Mean[0])
	}
	for _, row := range r.Rows {
		if row.Name == "cc1" && row.Acc[1] < row.Acc[0]+5 {
			t.Errorf("cc1 should gain from path history: %.1f%% -> %.1f%%",
				row.Acc[0], row.Acc[1])
		}
	}
}

func TestMAFAblation(t *testing.T) {
	r, err := testSuite.MAFAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		// Non-blocking misses can only raise the baseline IPC.
		if row.NonBlockingIPC < row.BlockingIPC-0.001 {
			t.Errorf("%s: MAF lowered IPC: %.3f -> %.3f",
				row.Name, row.BlockingIPC, row.NonBlockingIPC)
		}
	}
	if r.GMBlocking <= 0 || r.GMNonBlocking <= 0 {
		t.Error("degenerate geometric means")
	}
}

func TestDataflowLimits(t *testing.T) {
	r, err := testSuite.DataflowLimits()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.BaseIPC <= 0 {
			t.Errorf("%s: degenerate limit IPC", row.Name)
		}
		if row.SimpleSpeedup < 0.999 {
			t.Errorf("%s: collapsing loads lengthened the critical path: %v",
				row.Name, row.SimpleSpeedup)
		}
		if row.PerfectSpeedup < row.SimpleSpeedup-1e-9 {
			t.Errorf("%s: Perfect (%v) below Simple (%v)", row.Name,
				row.PerfectSpeedup, row.SimpleSpeedup)
		}
	}
	if r.GMPerfect < r.GMSimple {
		t.Error("Perfect GM below Simple GM")
	}
}

func TestMachinesDiagnostics(t *testing.T) {
	r, err := testSuite.Machines()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.IPC620 <= 0 || row.IPC21164 <= 0 {
			t.Errorf("%s: zero IPC", row.Name)
		}
		// The wider 620+ must never be slower than the 620.
		if row.IPC620Plus < row.IPC620*0.999 {
			t.Errorf("%s: 620+ IPC (%v) below 620 (%v)", row.Name,
				row.IPC620Plus, row.IPC620)
		}
		// The 21164's 8KB direct-mapped L1 must miss at least as often
		// as the 620's 32KB 8-way L1.
		if row.L1Miss21164 < row.L1Miss620-0.001 {
			t.Errorf("%s: 21164 L1 (%v) missing less than 620's (%v)",
				row.Name, row.L1Miss21164, row.L1Miss620)
		}
	}
}

func TestResourceSweep(t *testing.T) {
	r, err := testSuite.ResourceSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatal("missing variants")
	}
	if r.Rows[0].Speedup != 1.0 {
		t.Errorf("base variant speedup = %v, want exactly 1", r.Rows[0].Speedup)
	}
	last := r.Rows[len(r.Rows)-1]
	for _, row := range r.Rows[:len(r.Rows)-1] {
		if row.Speedup < 0.999 {
			t.Errorf("%s: enlarging a resource slowed the machine: %v", row.Name, row.Speedup)
		}
		if last.Speedup < row.Speedup-1e-9 {
			t.Errorf("620+ (%v) below single-axis variant %s (%v)",
				last.Speedup, row.Name, row.Speedup)
		}
	}
}

// TestAllRendersProduceOutput pins that every result type renders without
// panicking and mentions its benchmarks.
func TestAllRendersProduceOutput(t *testing.T) {
	var buf bytes.Buffer
	check := func(name string) {
		t.Helper()
		out := buf.String()
		if len(out) < 100 || !strings.Contains(out, "grep") {
			t.Errorf("%s render suspicious (len %d)", name, len(out))
		}
		buf.Reset()
	}
	if r, err := testSuite.Figure1(); err == nil {
		r.Render(&buf)
		check("fig1")
	}
	if r, err := testSuite.Figure2(); err == nil {
		r.Render(&buf)
		check("fig2")
	}
	if r, err := testSuite.Table3(); err == nil {
		r.Render(&buf)
		check("table3")
	}
	if r, err := testSuite.Table4(); err == nil {
		r.Render(&buf)
		check("table4")
	}
	if r, err := testSuite.Figure6(); err == nil {
		r.Render(&buf)
		check("fig6")
	}
	if r, err := testSuite.Table6(); err == nil {
		r.Render(&buf)
		check("table6")
	}
	if r, err := testSuite.Figure9(); err == nil {
		r.Render(&buf)
		check("fig9")
	}
	if r, err := testSuite.GeneralValueLocality(); err == nil {
		r.Render(&buf)
		check("gvl")
	}
	if r, err := testSuite.PathLVPStudy([]int{0, 4}); err == nil {
		r.Render(&buf)
		check("pathlvp")
	}
	if r, err := testSuite.MAFAblation(); err == nil {
		r.Render(&buf)
		check("maf")
	}
	if r, err := testSuite.DataflowLimits(); err == nil {
		r.Render(&buf)
		check("limits")
	}
	if r, err := testSuite.Machines(); err == nil {
		r.Render(&buf)
		check("machines")
	}
	if r, err := testSuite.ResourceSweep(); err == nil {
		r.Render(&buf)
		if buf.Len() == 0 {
			t.Error("resources render empty")
		}
		buf.Reset()
	}
	if r, err := testSuite.PredictorStudy(); err == nil {
		r.Render(&buf)
		check("predictors")
	}
	// Figure 7/8 and the sweeps have no per-benchmark rows; just render.
	if r, err := testSuite.Figure7(); err == nil {
		r.Render(&buf)
		if buf.Len() == 0 {
			t.Error("fig7 render empty")
		}
		buf.Reset()
	}
	if r, err := testSuite.Figure8(); err == nil {
		r.Render(&buf)
		if buf.Len() == 0 {
			t.Error("fig8 render empty")
		}
		buf.Reset()
	}
	if r, err := testSuite.LVPTSweep([]int{256, 512}); err == nil {
		r.Render(&buf)
		if buf.Len() == 0 {
			t.Error("lvptsweep render empty")
		}
		buf.Reset()
	}
	if r, err := testSuite.LCTBitsSweep([]int{1, 2}); err == nil {
		r.Render(&buf)
		if buf.Len() == 0 {
			t.Error("lctsweep render empty")
		}
		buf.Reset()
	}
	if r, err := testSuite.CVUSweep([]int{8, 16}); err == nil {
		r.Render(&buf)
		if buf.Len() == 0 {
			t.Error("cvusweep render empty")
		}
		buf.Reset()
	}
	// Static tables.
	Table2(&buf)
	if buf.Len() == 0 {
		t.Error("table2 empty")
	}
	buf.Reset()
	Table5(&buf)
	if buf.Len() == 0 {
		t.Error("table5 empty")
	}
	buf.Reset()
	if r, err := testSuite.Table1(); err == nil {
		r.Render(&buf)
		check("table1")
	}
}

func TestGVPStudy(t *testing.T) {
	r, err := testSuite.GVPStudy()
	if err != nil {
		t.Fatal(err)
	}
	// Perfect all-result prediction must dominate both realistic columns
	// and beat load-only Perfect headroom on average.
	for _, row := range r.Rows {
		if row.GVPPerfect < row.GVPSimple-1e-9 || row.GVPPerfect < row.LVPSimple-1e-9 {
			t.Errorf("%s: GVP Perfect (%v) below a realistic column (%v / %v)",
				row.Name, row.GVPPerfect, row.GVPSimple, row.LVPSimple)
		}
	}
	f6, err := testSuite.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if r.GM[2] < f6.GMPPC[3] {
		t.Errorf("GVP Perfect GM (%v) should exceed load-only Perfect GM (%v)",
			r.GM[2], f6.GMPPC[3])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "grep") {
		t.Error("render missing rows")
	}
}

// TestSuiteParallelismDeterministic pins that the concurrent experiment
// driver produces identical numbers across independent suites (all
// randomness is seeded; caches only memoise).
func TestSuiteParallelismDeterministic(t *testing.T) {
	a, err := NewSuite(1).Figure6()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSuite(1).Figure6()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
	if a.GMPPC != b.GMPPC || a.GMAXP != b.GMAXP {
		t.Fatal("geometric means differ across runs")
	}
}

func TestStallsDiagnostics(t *testing.T) {
	r, err := testSuite.Stalls()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		for _, v := range []float64{row.RS, row.Rename, row.Completion, row.MemSlots, row.FetchEmpty} {
			if v < 0 || v > 1 {
				t.Errorf("%s: stall fraction out of range: %+v", row.Name, row)
			}
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "grep") {
		t.Error("stalls render missing rows")
	}
}
