package exp

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"lvp/internal/bench"
	"lvp/internal/isa"
	"lvp/internal/locality"
	"lvp/internal/lvp"
	"lvp/internal/prog"
	"lvp/internal/report"
	"lvp/internal/stats"
)

// GVLRow holds general (all-result) value locality for one benchmark —
// paper §7: "speculating on values generated by instructions other than
// loads".
type GVLRow struct {
	Name string
	// LoadsD1 is load-only locality at depth 1 (the paper's Figure 1
	// number, for comparison).
	LoadsD1 float64
	// AllD1/AllD16 cover every register-writing instruction.
	AllD1, AllD16 float64
	// ByClass is depth-1 locality per functional-unit class.
	ByClass [isa.NumClasses]float64
}

// GVLResult is the general-value-locality dataset.
type GVLResult struct {
	Rows []GVLRow
	// Mean of each column.
	MeanLoads, MeanAllD1, MeanAllD16 float64
}

// GeneralValueLocality measures result-value locality for all instructions
// (PPC target), quantifying how much headroom §7's "values generated by
// instructions other than loads" offers.
func (s *Suite) GeneralValueLocality() (*GVLResult, error) {
	res := &GVLResult{Rows: make([]GVLRow, len(bench.All()))}
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		loads, err := s.Locality(b.Name, prog.PPC)
		if err != nil {
			return err
		}
		t, err := s.Trace(b.Name, prog.PPC)
		if err != nil {
			return err
		}
		start := time.Now()
		all := locality.MeasureGeneral(t, locality.DefaultEntries, 1, 16)
		s.finishPhase("walk", start, slog.String("bench", b.Name), slog.String("study", "gvl"))
		row := GVLRow{
			Name:    b.Name,
			LoadsD1: loads[0].Overall.Percent(),
			AllD1:   all[0].Overall.Percent(),
			AllD16:  all[1].Overall.Percent(),
		}
		for c := range row.ByClass {
			row.ByClass[c] = all[0].ByClass[c].Percent()
		}
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.MeanLoads = stats.Mean(column(res.Rows, func(r GVLRow) float64 { return r.LoadsD1 }))
	res.MeanAllD1 = stats.Mean(column(res.Rows, func(r GVLRow) float64 { return r.AllD1 }))
	res.MeanAllD16 = stats.Mean(column(res.Rows, func(r GVLRow) float64 { return r.AllD16 }))
	return res, nil
}

// Render writes the table.
func (r *GVLResult) Render(w io.Writer) {
	t := report.Table{
		Title: "Extension (paper §7): general value locality — all register results (PPC, depth 1 unless noted)",
		Columns: []string{"Benchmark", "loads d1", "all d1", "all d16",
			"simple-int", "complex-int", "simple-fp", "branch"},
	}
	f := func(v float64) string { return fmt.Sprintf("%.1f%%", v) }
	for _, row := range r.Rows {
		t.AddRow(row.Name, f(row.LoadsD1), f(row.AllD1), f(row.AllD16),
			f(row.ByClass[isa.ClassSimpleInt]), f(row.ByClass[isa.ClassComplexInt]),
			f(row.ByClass[isa.ClassSimpleFP]), f(row.ByClass[isa.ClassBranch]))
	}
	t.AddRow("Mean", f(r.MeanLoads), f(r.MeanAllD1), f(r.MeanAllD16), "", "", "", "")
	t.Render(w)
}

// PathRow compares plain last-value against branch-history-indexed
// prediction for one benchmark (paper §7's first proposed refinement).
type PathRow struct {
	Name string
	// Acc[i] is exact-prediction accuracy with HistBits[i] of branch
	// history folded into the LVPT index.
	Acc []float64
}

// PathResult is the path-indexed-LVPT study.
type PathResult struct {
	HistBits []int
	Rows     []PathRow
	Mean     []float64
}

// PathLVPStudy sweeps branch-history bits in the LVPT index (4096 entries,
// PPC target). histBits = 0 is the plain last-value control.
func (s *Suite) PathLVPStudy(histBits []int) (*PathResult, error) {
	if len(histBits) == 0 {
		histBits = []int{0, 2, 4, 8}
	}
	res := &PathResult{
		HistBits: histBits,
		Rows:     make([]PathRow, len(bench.All())),
		Mean:     make([]float64, len(histBits)),
	}
	err := s.forEachBenchIdx(func(bi int, b bench.Benchmark) error {
		t, err := s.Trace(b.Name, prog.PPC)
		if err != nil {
			return err
		}
		row := PathRow{Name: b.Name, Acc: make([]float64, len(histBits))}
		start := time.Now()
		for i, r := range lvp.MeasurePathAccuracy(t, 4096, histBits...) {
			row.Acc[i] = r.Percent()
		}
		s.finishPhase("walk", start, slog.String("bench", b.Name), slog.String("study", "pathlvp"))
		res.Rows[bi] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range histBits {
		res.Mean[i] = stats.Mean(column(res.Rows, func(r PathRow) float64 { return r.Acc[i] }))
	}
	return res, nil
}

// Render writes the sweep.
func (r *PathResult) Render(w io.Writer) {
	cols := []string{"Benchmark"}
	for _, hb := range r.HistBits {
		cols = append(cols, fmt.Sprintf("ghr=%d", hb))
	}
	t := report.Table{
		Title:   "Extension (paper §7): branch-history-indexed LVPT accuracy (4096 entries, PPC)",
		Columns: cols,
	}
	for _, row := range r.Rows {
		cells := []any{row.Name}
		for _, a := range row.Acc {
			cells = append(cells, fmt.Sprintf("%.1f%%", a))
		}
		t.AddRow(cells...)
	}
	cells := []any{"Mean"}
	for _, m := range r.Mean {
		cells = append(cells, fmt.Sprintf("%.1f%%", m))
	}
	t.AddRow(cells...)
	t.Render(w)
}
