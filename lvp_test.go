package lvp_test

import (
	"fmt"
	"strings"
	"testing"

	"lvp"
)

// The facade tests exercise the public API end-to-end the way the README's
// quickstart does.

func TestFacadeQuickstartFlow(t *testing.T) {
	tr, err := lvp.BuildTrace("grep", lvp.PPC, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "grep" || tr.Target != "ppc" || tr.Len() == 0 {
		t.Fatalf("bad trace: %s/%s, %d records", tr.Name, tr.Target, tr.Len())
	}
	loc := lvp.MeasureLocality(tr, 1, 16)
	if len(loc) != 2 || loc[0].Depth != 1 || loc[1].Depth != 16 {
		t.Fatalf("bad locality result: %+v", loc)
	}
	if loc[1].Overall.Percent() < loc[0].Overall.Percent() {
		t.Error("depth-16 locality below depth-1")
	}
	ann, st, err := lvp.Annotate(tr, lvp.Simple)
	if err != nil {
		t.Fatal(err)
	}
	if len(ann) != tr.Len() {
		t.Fatal("annotation length mismatch")
	}
	if st.Loads == 0 || st.Coverage() <= 0 {
		t.Fatalf("degenerate unit stats: %+v", st)
	}
	base := lvp.Simulate620(tr, nil, "")
	fast := lvp.Simulate620(tr, ann, "Simple")
	if base.Cycles <= 0 || fast.Cycles <= 0 {
		t.Fatal("empty simulations")
	}
	if fast.Cycles > base.Cycles*11/10 {
		t.Errorf("Simple LVP slowed grep by >10%%: %d vs %d", fast.Cycles, base.Cycles)
	}
}

func TestFacadeBenchmarkList(t *testing.T) {
	bs := lvp.Benchmarks()
	names := lvp.BenchmarkNames()
	if len(bs) != 17 {
		t.Errorf("suite has %d benchmarks, want 17 (paper Table 1)", len(bs))
	}
	if len(names) != len(bs) {
		t.Error("name list length mismatch")
	}
	want := map[string]bool{
		"cc1-271": true, "cc1": true, "cjpeg": true, "compress": true,
		"doduc": true, "eqntott": true, "gawk": true, "gperf": true,
		"grep": true, "hydro2d": true, "mpeg": true, "perl": true,
		"quick": true, "sc": true, "swm256": true, "tomcatv": true,
		"xlisp": true,
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected benchmark %q", n)
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("missing paper benchmark %q", n)
	}
}

func TestFacadeConfigs(t *testing.T) {
	cfgs := lvp.Configs()
	if len(cfgs) != 4 {
		t.Fatalf("%d configs, want 4", len(cfgs))
	}
	if cfgs[0].Name != "Simple" || cfgs[3].Name != "Perfect" {
		t.Errorf("config order: %v", cfgs)
	}
}

func TestFacadePredictors(t *testing.T) {
	tr, err := lvp.BuildTrace("eqntott", lvp.AXP, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []lvp.Predictor{
		lvp.NewLastValue(1024), lvp.NewStride(1024), lvp.NewContext(1024, 4096),
	} {
		acc := lvp.MeasurePredictor(tr, p)
		if acc < 0 || acc > 1 {
			t.Errorf("%s accuracy out of range: %v", p.Name(), acc)
		}
	}
}

func TestFacade21164(t *testing.T) {
	tr, err := lvp.BuildTrace("compress", lvp.AXP, 1)
	if err != nil {
		t.Fatal(err)
	}
	ann, _, err := lvp.Annotate(tr, lvp.Limit)
	if err != nil {
		t.Fatal(err)
	}
	base := lvp.Simulate21164(tr, nil, "")
	fast := lvp.Simulate21164(tr, ann, "Limit")
	if fast.Cycles >= base.Cycles {
		t.Errorf("Limit LVP should speed up compress on the 21164: %d vs %d",
			fast.Cycles, base.Cycles)
	}
}

// TestFacadeSimulateMismatchedAnnotation: the in-memory wrappers (the
// three machines and the dataflow analysis) panic with an error naming
// both lengths when the annotation does not fit the trace, instead of
// returning a result or indexing past the end.
func TestFacadeSimulateMismatchedAnnotation(t *testing.T) {
	for _, c := range []struct {
		name   string
		target lvp.Target
		sim    func(*lvp.Trace, lvp.Annotation, string)
	}{
		{"620", lvp.PPC, func(tr *lvp.Trace, a lvp.Annotation, n string) { lvp.Simulate620(tr, a, n) }},
		{"620+", lvp.PPC, func(tr *lvp.Trace, a lvp.Annotation, n string) { lvp.Simulate620Plus(tr, a, n) }},
		{"21164", lvp.AXP, func(tr *lvp.Trace, a lvp.Annotation, n string) { lvp.Simulate21164(tr, a, n) }},
		{"dataflow", lvp.PPC, func(tr *lvp.Trace, a lvp.Annotation, _ string) { lvp.AnalyzeDataflow(tr, a) }},
	} {
		tr, err := lvp.BuildTrace("grep", c.target, 1)
		if err != nil {
			t.Fatal(err)
		}
		ann, _, err := lvp.Annotate(tr, lvp.Simple)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []lvp.Annotation{ann[:len(ann)/2], append(ann, lvp.PredNone)} {
			want := fmt.Sprintf("%d states for %d records", len(a), tr.Len())
			func() {
				defer func() {
					err, _ := recover().(error)
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("%s: panic %v, want an error naming %q", c.name, err, want)
					}
				}()
				c.sim(tr, a, "Simple")
			}()
		}
	}
}

func TestFacadeUnknownBenchmark(t *testing.T) {
	if _, err := lvp.BuildTrace("nope", lvp.PPC, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestFacadeExtensions(t *testing.T) {
	tr, err := lvp.BuildTrace("cc1", lvp.PPC, 1)
	if err != nil {
		t.Fatal(err)
	}
	// General value locality.
	gl := lvp.MeasureGeneralLocality(tr, 1, 16)
	if len(gl) != 2 || gl[0].Overall.Total == 0 {
		t.Fatalf("general locality degenerate: %+v", gl)
	}
	if gl[1].Overall.Percent() < gl[0].Overall.Percent() {
		t.Error("depth-16 general locality below depth-1")
	}
	// Path-indexed predictor: cc1 must gain from branch history.
	base := lvp.MeasurePathPredictor(tr, 4096, 0)
	path := lvp.MeasurePathPredictor(tr, 4096, 8)
	if path < base {
		t.Errorf("path prediction (%v) below last-value (%v) on cc1", path, base)
	}
	// General annotation feeds the 620 model.
	ann, st, err := lvp.AnnotateGeneral(tr, lvp.Simple)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loads == 0 {
		t.Fatal("general annotation saw no writers")
	}
	sim := lvp.Simulate620(tr, ann, "GVP")
	if sim.Cycles <= 0 {
		t.Fatal("GVP simulation empty")
	}
	// Dataflow analysis.
	df := lvp.AnalyzeDataflow(tr, nil)
	if df.CriticalPath <= 0 || df.LimitIPC() <= 0 {
		t.Fatalf("dataflow result degenerate: %+v", df)
	}
	loadAnn, _, err := lvp.Annotate(tr, lvp.Perfect)
	if err != nil {
		t.Fatal(err)
	}
	collapsed := lvp.AnalyzeDataflow(tr, loadAnn)
	if collapsed.CriticalPath > df.CriticalPath {
		t.Error("collapsing loads lengthened the dataflow critical path")
	}
	// 620+ and two-value predictor facade paths.
	plus := lvp.Simulate620Plus(tr, nil, "")
	if plus.Cycles <= 0 || plus.Machine != "620+" {
		t.Errorf("620+ facade: %+v", plus.Machine)
	}
	if acc := lvp.MeasurePredictor(tr, lvp.NewTwoValue(1024)); acc <= 0 {
		t.Error("two-value accuracy zero")
	}
	// Suite facade.
	s := lvp.NewSuite(1)
	if s == nil {
		t.Fatal("nil suite")
	}
}
