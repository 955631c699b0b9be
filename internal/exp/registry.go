package exp

import "io"

// Experiment is one runnable table or figure of the evaluation: a name (the
// -exp argument of cmd/lvpsim), a one-line description, and a driver that
// runs it on a Suite and renders the result.
type Experiment struct {
	Name string
	Desc string
	// Paper reports whether the experiment reproduces a paper exhibit
	// (as opposed to an ablation/extension only run under -exp all).
	Paper bool
	Run   func(s *Suite, w io.Writer) error
}

// render adapts the common driver shape (build a result, render it).
func render[T interface{ Render(io.Writer) }](build func(s *Suite) (T, error)) func(*Suite, io.Writer) error {
	return func(s *Suite, w io.Writer) error {
		r, err := build(s)
		if err != nil {
			return err
		}
		r.Render(w)
		return nil
	}
}

// experiments lists every experiment in rendering order. The golden
// determinism test iterates this same list, so a driver added here is
// automatically covered by the serial-vs-parallel byte-identity gate.
var experiments = []Experiment{
	{"table1", "benchmark descriptions and dynamic counts", true,
		render(func(s *Suite) (*Table1Result, error) { return s.Table1() })},
	{"fig1", "load value locality, depth 1 and 16, both targets", true,
		render(func(s *Suite) (*Fig1Result, error) { return s.Figure1() })},
	{"fig2", "PowerPC value locality by data type", true,
		render(func(s *Suite) (*Fig2Result, error) { return s.Figure2() })},
	{"table2", "LVP unit configurations", true,
		func(s *Suite, w io.Writer) error { Table2(w); return nil }},
	{"table3", "LCT hit rates", true,
		render(func(s *Suite) (*Table3Result, error) { return s.Table3() })},
	{"table4", "constant identification rates", true,
		render(func(s *Suite) (*Table4Result, error) { return s.Table4() })},
	{"table5", "instruction latencies", true,
		func(s *Suite, w io.Writer) error { Table5(w); return nil }},
	{"fig6", "base machine model speedups", true,
		render(func(s *Suite) (*Fig6Result, error) { return s.Figure6() })},
	{"table6", "PowerPC 620+ speedups", true,
		render(func(s *Suite) (*Table6Result, error) { return s.Table6() })},
	{"fig7", "load verification latency distribution", true,
		render(func(s *Suite) (*Fig7Result, error) { return s.Figure7() })},
	{"fig8", "dependency resolution latencies by FU", true,
		render(func(s *Suite) (*Fig8Result, error) { return s.Figure8() })},
	{"fig9", "L1 bank conflict rates", true,
		render(func(s *Suite) (*Fig9Result, error) { return s.Figure9() })},
	{"lvptsweep", "ablation: LVPT size vs coverage", false,
		render(func(s *Suite) (*LVPTSweepResult, error) { return s.LVPTSweep() })},
	{"lctsweep", "ablation: LCT counter width", false,
		render(func(s *Suite) (*LCTBitsResult, error) { return s.LCTBitsSweep() })},
	{"cvusweep", "ablation: CVU capacity", false,
		render(func(s *Suite) (*CVUSweepResult, error) { return s.CVUSweep() })},
	{"predictors", "extension: stride/context predictors (paper §7)", false,
		render(func(s *Suite) (*PredictorResult, error) { return s.PredictorStudy() })},
	{"zoosweep", "ablation: predictor-family zoo × workload sweep", false,
		render(func(s *Suite) (*ZooResult, error) { return s.ZooSweep() })},
	{"gvl", "extension: general value locality, all results (paper §7)", false,
		render(func(s *Suite) (*GVLResult, error) { return s.GeneralValueLocality() })},
	{"pathlvp", "extension: branch-history-indexed LVPT (paper §7)", false,
		render(func(s *Suite) (*PathResult, error) { return s.PathLVPStudy() })},
	{"mafablation", "ablation: 21164 blocking vs non-blocking misses", false,
		render(func(s *Suite) (*MAFResult, error) { return s.MAFAblation() })},
	{"limits", "limit study: dataflow critical-path speedups", false,
		render(func(s *Suite) (*LimitResult, error) { return s.DataflowLimits() })},
	{"machines", "diagnostics: baseline machine behaviour", false,
		render(func(s *Suite) (*MachinesResult, error) { return s.Machines() })},
	{"resourcesweep", "ablation: which 620 resource binds", false,
		render(func(s *Suite) (*ResourceResult, error) { return s.ResourceSweep() })},
	{"gvp", "extension: general value prediction on the 620 (paper §7)", false,
		render(func(s *Suite) (*GVPResult, error) { return s.GVPStudy() })},
	{"stalls", "diagnostics: 620 dispatch-stall breakdown", false,
		render(func(s *Suite) (*StallResult, error) { return s.Stalls() })},
}

// Experiments returns every experiment in rendering order.
func Experiments() []Experiment {
	out := make([]Experiment, len(experiments))
	copy(out, experiments)
	return out
}
