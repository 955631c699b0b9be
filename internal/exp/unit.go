package exp

import (
	"fmt"
	"io"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/isa"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/report"
	"lvp/internal/stats"
)

// Table2 renders the (static) LVP Unit configuration table, paper Table 2.
func Table2(w io.Writer) {
	t := report.Table{
		Title:   "Table 2: LVP Unit Configurations",
		Columns: []string{"Config", "LVPT entries", "History depth", "LCT entries", "LCT bits", "CVU entries"},
	}
	for _, c := range lvp.Configs {
		if c.Perfect {
			t.AddRow(c.Name, "inf", "perfect", "perfect", "-", 0)
			continue
		}
		depth := fmt.Sprintf("%d", c.HistoryDepth)
		if c.HistoryDepth > 1 {
			depth += "/perfect-select"
		}
		t.AddRow(c.Name, c.LVPTEntries, depth, c.LCTEntries, c.LCTBits, c.CVUEntries)
	}
	t.Render(w)
}

// Table3Row holds the LCT classification rates for one benchmark on one
// target (paper Table 3): the percentage of unpredictable loads identified
// as unpredictable, and of predictable loads identified as predictable,
// under the Simple and Limit configurations.
type Table3Row struct {
	Name                     string
	SimpleUnpred, SimplePred float64 // fractions
	LimitUnpred, LimitPred   float64
}

// Table3Result holds both targets' tables.
type Table3Result struct {
	AXP []Table3Row
	PPC []Table3Row
}

// Table3 reproduces paper Table 3 (LCT hit rates).
func (s *Suite) Table3() (*Table3Result, error) {
	n := len(bench.All())
	res := &Table3Result{AXP: make([]Table3Row, n), PPC: make([]Table3Row, n)}
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		for _, tg := range prog.Targets {
			simple, err := s.AnnotationStats(b.Name, tg, lvp.Simple)
			if err != nil {
				return err
			}
			limit, err := s.AnnotationStats(b.Name, tg, lvp.Limit)
			if err != nil {
				return err
			}
			row := Table3Row{
				Name:         b.Name,
				SimpleUnpred: simple.UnpredictableIdentifiedRate(),
				SimplePred:   simple.PredictableIdentifiedRate(),
				LimitUnpred:  limit.UnpredictableIdentifiedRate(),
				LimitPred:    limit.PredictableIdentifiedRate(),
			}
			if tg.Name == "axp" {
				res.AXP[i] = row
			} else {
				res.PPC[i] = row
			}
		}
		return nil
	})
	return res, err
}

// table3Mean returns the arithmetic means of the four columns for one
// target's rows. (The paper prints a GM row; we use the arithmetic mean
// because benchmarks with no predictable loads at all — e.g. tomcatv —
// contribute legitimate zeros that would annihilate a geometric mean.)
func table3Mean(rows []Table3Row) (su, sp, lu, lp float64) {
	return stats.Mean(column(rows, func(r Table3Row) float64 { return r.SimpleUnpred })),
		stats.Mean(column(rows, func(r Table3Row) float64 { return r.SimplePred })),
		stats.Mean(column(rows, func(r Table3Row) float64 { return r.LimitUnpred })),
		stats.Mean(column(rows, func(r Table3Row) float64 { return r.LimitPred }))
}

// Render writes both target tables with GM rows.
func (r *Table3Result) Render(w io.Writer) {
	for _, part := range []struct {
		name string
		rows []Table3Row
	}{{"AXP", r.AXP}, {"PPC", r.PPC}} {
		t := report.Table{
			Title: "Table 3 (" + part.name + "): LCT Hit Rates",
			Columns: []string{"Benchmark",
				"Simple unpred", "Simple pred", "Limit unpred", "Limit pred"},
		}
		for _, row := range part.rows {
			t.AddRow(row.Name,
				stats.Pct(row.SimpleUnpred, 0), stats.Pct(row.SimplePred, 0),
				stats.Pct(row.LimitUnpred, 0), stats.Pct(row.LimitPred, 0))
		}
		su, sp, lu, lp := table3Mean(part.rows)
		t.AddRow("Mean", stats.Pct(su, 0), stats.Pct(sp, 0), stats.Pct(lu, 0), stats.Pct(lp, 0))
		t.Render(w)
	}
}

// Table4Row holds the constant-identification rate (fraction of all dynamic
// loads verified through the CVU) for one benchmark on one target under the
// Simple and Constant configurations (paper Table 4).
type Table4Row struct {
	Name          string
	Simple, Const float64 // fractions of all dynamic loads
}

// Table4Result holds both targets.
type Table4Result struct {
	AXP []Table4Row
	PPC []Table4Row
}

// Table4 reproduces paper Table 4 (successful constant identification).
func (s *Suite) Table4() (*Table4Result, error) {
	n := len(bench.All())
	res := &Table4Result{AXP: make([]Table4Row, n), PPC: make([]Table4Row, n)}
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		for _, tg := range prog.Targets {
			simple, err := s.AnnotationStats(b.Name, tg, lvp.Simple)
			if err != nil {
				return err
			}
			cst, err := s.AnnotationStats(b.Name, tg, lvp.Constant)
			if err != nil {
				return err
			}
			row := Table4Row{Name: b.Name, Simple: simple.ConstantRate(), Const: cst.ConstantRate()}
			if tg.Name == "axp" {
				res.AXP[i] = row
			} else {
				res.PPC[i] = row
			}
		}
		return nil
	})
	return res, err
}

// Render writes the table (both targets side by side, like the paper).
func (r *Table4Result) Render(w io.Writer) {
	t := report.Table{
		Title: "Table 4: Successful Constant Identification Rates (% of all dynamic loads)",
		Columns: []string{"Benchmark",
			"AXP Simple", "AXP Constant", "PPC Simple", "PPC Constant"},
	}
	var a, b, c, d []float64
	for i := range r.AXP {
		t.AddRow(r.AXP[i].Name,
			stats.Pct(r.AXP[i].Simple, 1), stats.Pct(r.AXP[i].Const, 1),
			stats.Pct(r.PPC[i].Simple, 1), stats.Pct(r.PPC[i].Const, 1))
		a = append(a, r.AXP[i].Simple)
		b = append(b, r.AXP[i].Const)
		c = append(c, r.PPC[i].Simple)
		d = append(d, r.PPC[i].Const)
	}
	t.AddRow("Mean", stats.Pct(stats.Mean(a), 1), stats.Pct(stats.Mean(b), 1),
		stats.Pct(stats.Mean(c), 1), stats.Pct(stats.Mean(d), 1))
	t.Render(w)
}

// Table5 renders paper Table 5 from the two models' latency tables: each
// cell is issue interval/result latency. After a mispredicted branch the
// 620 refetches once the branch resolves (its result latency, plus any wait
// to issue); the 21164 pays its BranchPenalty.
func Table5(w io.Writer) {
	axp := axp21164.Config21164()
	ppcLat, axpLat := ppc620.Config620().Latencies(), axp.Latencies()
	t := report.Table{
		Title:   "Table 5: Instruction Latencies (issue/result)",
		Columns: []string{"Class", "PPC 620", "AXP 21164"},
	}
	pair := func(l isa.Latency) string { return fmt.Sprintf("%d/%d", l.Issue, l.Result) }
	cells := func(l isa.Latencies) []string {
		return []string{pair(l.SimpleInt), pair(l.Mul) + " (mul), " + pair(l.Div) + " (div)",
			pair(l.Load), pair(l.SimpleFP), pair(l.ComplexFP)}
	}
	ppcCells := append(cells(ppcLat), fmt.Sprintf("%d, 0/%d+", ppcLat.Branch.Issue, ppcLat.Branch.Result))
	axpCells := append(cells(axpLat), fmt.Sprintf("%d, 0/%d", axpLat.Branch.Issue, axp.BranchPenalty))
	for i, class := range []string{"Simple integer", "Complex integer", "Load/store (L1 hit)",
		"Simple FP", "Complex FP", "Branch (pred/mispred)"} {
		t.AddRow(class, ppcCells[i], axpCells[i])
	}
	t.Render(w)
}
