package exp

import (
	"io"

	"lvp/internal/bench"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/report"
	"lvp/internal/stats"
)

// resourceVariant is one single-axis enlargement of the base 620. A
// variant without apply is a standard machine (the 620, or the 620+ when
// plus), simulated through the suite's cache so it shares the no-LVP cells
// the paper figures already built.
type resourceVariant struct {
	name  string
	apply func(*ppc620.Config)
	plus  bool
}

func resourceVariants() []resourceVariant {
	return []resourceVariant{
		{name: "base 620"},
		{name: "2x reservation stations", apply: func(c *ppc620.Config) {
			for f := range c.RS {
				c.RS[f] *= 2
			}
		}},
		{name: "2x rename buffers", apply: func(c *ppc620.Config) {
			c.GPRRename *= 2
			c.FPRRename *= 2
		}},
		{name: "2x completion buffer", apply: func(c *ppc620.Config) {
			c.Completion *= 2
		}},
		{name: "2nd load/store unit", apply: func(c *ppc620.Config) {
			c.Units[ppc620.LSU] = 2
			c.MaxLoadDispatch, c.MaxStoreDispatch = 2, 2
			c.RelaxedLS = true
		}},
		{name: "620+ (all of the above)", plus: true},
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
		t, err := s.Trace(b.Name, prog.PPC)
		if err != nil {
			return err
		}
		base := 0
		for vi, v := range variants {
			var st ppc620.Stats
			if v.apply == nil {
				if st, err = s.Sim620(b.Name, v.plus, nil); err != nil {
					return err
				}
			} else {
				cfg := ppc620.Config620()
				v.apply(&cfg)
				if st, err = ppc620.Simulate(t.Slabs(nil), cfg, "", nil); err != nil {
					return err
				}
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
