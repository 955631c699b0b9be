package exp

import (
	"io"
	"log/slog"
	"time"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/dfg"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/report"
	"lvp/internal/stats"
	"lvp/internal/trace"
)

// LimitRow is the dataflow-limit study for one benchmark: the best possible
// speedup from collapsing correctly-predicted loads, independent of any
// machine configuration.
type LimitRow struct {
	Name string
	// BaseIPC is the dataflow-limit IPC with full load latencies.
	BaseIPC float64
	// SimpleSpeedup / PerfectSpeedup are critical-path reductions with
	// the Simple and Perfect annotations.
	SimpleSpeedup  float64
	PerfectSpeedup float64
}

// LimitResult is the dataflow-limit dataset.
type LimitResult struct {
	Rows                []LimitRow
	GMSimple, GMPerfect float64
}

// DataflowLimits computes, per benchmark (PPC target), the dataflow-bound
// speedups that LVP could at most deliver — the machine-independent version
// of the paper's "collapsing true dependencies" claim.
func (s *Suite) DataflowLimits() (*LimitResult, error) {
	res := &LimitResult{Rows: make([]LimitRow, len(bench.All()))}
	lat := ppc620.Config620().Latencies().Result
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		t, err := s.Trace(b.Name, prog.PPC)
		if err != nil {
			return err
		}
		annS, _, err := s.Annotation(b.Name, prog.PPC, lvp.Simple)
		if err != nil {
			return err
		}
		annP, _, err := s.Annotation(b.Name, prog.PPC, lvp.Perfect)
		if err != nil {
			return err
		}
		start := time.Now()
		var cp [3]dfg.Result // no LVP, Simple, Perfect
		for k, ann := range []trace.Annotation{nil, annS, annP} {
			if cp[k], err = dfg.Analyze(t, ann, lat); err != nil {
				return err
			}
		}
		s.finishPhase("dfg", start, slog.String("bench", b.Name))
		res.Rows[i] = LimitRow{
			Name:           b.Name,
			BaseIPC:        cp[0].LimitIPC(),
			SimpleSpeedup:  float64(cp[0].CriticalPath) / float64(max(1, cp[1].CriticalPath)),
			PerfectSpeedup: float64(cp[0].CriticalPath) / float64(max(1, cp[2].CriticalPath)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.GMSimple = stats.GeoMean(column(res.Rows, func(r LimitRow) float64 { return r.SimpleSpeedup }))
	res.GMPerfect = stats.GeoMean(column(res.Rows, func(r LimitRow) float64 { return r.PerfectSpeedup }))
	return res, nil
}

// Render writes the table.
func (r *LimitResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Limit study: dataflow critical-path speedup from collapsing predicted loads (infinite resources)",
		Columns: []string{"Benchmark", "limit IPC", "Simple", "Perfect"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, stats.Ratio(row.BaseIPC),
			stats.Ratio(row.SimpleSpeedup), stats.Ratio(row.PerfectSpeedup))
	}
	t.AddRow("GM", "", stats.Ratio(r.GMSimple), stats.Ratio(r.GMPerfect))
	t.Render(w)
}

// MachineRow is the per-benchmark diagnostic row for one machine.
type MachineRow struct {
	Name         string
	IPC620       float64
	IPC620Plus   float64
	IPC21164     float64
	L1Miss620    float64 // per access
	L1Miss21164  float64
	BranchAcc620 float64
	Alias620     int
}

// MachinesResult is the baseline-machine diagnostic dataset (not a paper
// exhibit; a sanity dashboard a simulator release needs).
type MachinesResult struct {
	Rows []MachineRow
}

// Machines collects baseline (no-LVP) machine diagnostics per benchmark.
func (s *Suite) Machines() (*MachinesResult, error) {
	res := &MachinesResult{Rows: make([]MachineRow, len(bench.All()))}
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		s620, err := s.Sim620(b.Name, ppc620.Config620(), nil)
		if err != nil {
			return err
		}
		sPlus, err := s.Sim620(b.Name, ppc620.Config620Plus(), nil)
		if err != nil {
			return err
		}
		s164, err := s.Sim21164(b.Name, axp21164.Config21164(), nil)
		if err != nil {
			return err
		}
		res.Rows[i] = MachineRow{
			Name:         b.Name,
			IPC620:       s620.IPC(),
			IPC620Plus:   sPlus.IPC(),
			IPC21164:     s164.IPC(),
			L1Miss620:    s620.L1.MissRate(),
			L1Miss21164:  s164.L1.MissRate(),
			BranchAcc620: s620.Branch.CondAccuracy(),
			Alias620:     s620.AliasRefetches,
		}
		return nil
	})
	return res, err
}

// Render writes the dashboard.
func (r *MachinesResult) Render(w io.Writer) {
	t := report.Table{
		Title: "Machine diagnostics (baselines, no LVP)",
		Columns: []string{"Benchmark", "620 IPC", "620+ IPC", "21164 IPC",
			"620 L1 miss", "21164 L1 miss", "620 br acc", "620 alias refetch"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			stats.Ratio(row.IPC620), stats.Ratio(row.IPC620Plus), stats.Ratio(row.IPC21164),
			stats.Pct(row.L1Miss620, 1), stats.Pct(row.L1Miss21164, 1),
			stats.Pct(row.BranchAcc620, 1), row.Alias620)
	}
	t.Render(w)
}
