package exp

import (
	"io"

	"lvp/internal/bench"
	"lvp/internal/ppc620"
	"lvp/internal/report"
	"lvp/internal/stats"
)

// resourceVariant is one machine of the resource sweep: the base 620, one
// single-axis enlargement of it, or the 620+, which enlarges every axis.
type resourceVariant struct {
	name string
	mc   ppc620.Config
}

func resourceVariants() []resourceVariant {
	base := ppc620.Config620()
	rs, rename, completion, lsu := base, base, base, base
	for f := range rs.RS {
		rs.RS[f] *= 2
	}
	rename.GPRRename *= 2
	rename.FPRRename *= 2
	completion.Completion *= 2
	lsu.Units[ppc620.LSU] = 2
	lsu.MaxLoadDispatch, lsu.MaxStoreDispatch = 2, 2
	lsu.RelaxedLS = true
	return []resourceVariant{
		{"base 620", base},
		{"2x reservation stations", rs},
		{"2x rename buffers", rename},
		{"2x completion buffer", completion},
		{"2nd load/store unit", lsu},
		{"620+ (all of the above)", ppc620.Config620Plus()},
	}
}

// ResourceRow is one variant's geometric-mean speedup over the base 620.
type ResourceRow struct {
	Name    string
	Speedup float64
}

// ResourceResult is the single-axis resource-sensitivity study of the 620 —
// which buffer the 620+'s gains actually come from (context for the paper's
// §6.2 discussion).
type ResourceResult struct {
	Rows []ResourceRow
}

// ResourceSweep runs the whole suite over each variant (no LVP) and reports
// GM speedups over the base 620.
func (s *Suite) ResourceSweep() (*ResourceResult, error) {
	variants := resourceVariants()
	res := &ResourceResult{Rows: make([]ResourceRow, len(variants))}
	speedups := make([][]float64, len(variants))
	for vi := range speedups {
		speedups[vi] = make([]float64, len(bench.All()))
	}
	err := s.forEachBenchIdx(func(bi int, b bench.Benchmark) error {
		base := 0
		for vi, v := range variants {
			st, err := s.Sim620(b.Name, v.mc, nil)
			if err != nil {
				return err
			}
			if vi == 0 {
				base = st.Cycles
			}
			speedups[vi][bi] = float64(base) / float64(st.Cycles)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		res.Rows[vi] = ResourceRow{Name: v.name, Speedup: stats.GeoMean(speedups[vi])}
	}
	return res, nil
}

// Render writes the sweep.
func (r *ResourceResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Ablation: which 620 resource binds? (GM speedup over base 620, no LVP)",
		Columns: []string{"Variant", "GM speedup"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, stats.Ratio(row.Speedup))
	}
	t.Render(w)
}
