package exp

import (
	"io"

	"lvp/internal/bench"
	"lvp/internal/isa"
	"lvp/internal/prog"
	"lvp/internal/report"
	"lvp/internal/stats"
)

// Table1Row describes one benchmark (paper Table 1): what it computes and
// its dynamic instruction/load counts per target.
type Table1Row struct {
	Name        string
	Description string
	Input       string
	AXPInstr    int
	AXPLoads    int
	PPCInstr    int
	PPCLoads    int
}

// Table1Result is the full benchmark-description table.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 reproduces paper Table 1 (with our scaled-down run lengths).
func (s *Suite) Table1() (*Table1Result, error) {
	res := &Table1Result{Rows: make([]Table1Row, len(bench.All()))}
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		ta, err := s.Trace(b.Name, prog.AXP)
		if err != nil {
			return err
		}
		tp, err := s.Trace(b.Name, prog.PPC)
		if err != nil {
			return err
		}
		sa, sp := ta.Summarize(), tp.Summarize()
		res.Rows[i] = Table1Row{
			Name: b.Name, Description: b.Description, Input: b.Input,
			AXPInstr: sa.Instructions, AXPLoads: sa.Loads,
			PPCInstr: sp.Instructions, PPCLoads: sp.Loads,
		}
		return nil
	})
	return res, err
}

// Render writes the table.
func (r *Table1Result) Render(w io.Writer) {
	t := report.Table{
		Title: "Table 1: Benchmark Descriptions (dynamic counts at current scale)",
		Columns: []string{"Benchmark", "Description", "Input",
			"AXP instrs", "AXP loads", "PPC instrs", "PPC loads"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Description, row.Input,
			row.AXPInstr, row.AXPLoads, row.PPCInstr, row.PPCLoads)
	}
	t.Render(w)
}

// Fig1Row holds the value locality of one benchmark on both targets at
// history depths 1 and 16 (paper Figure 1).
type Fig1Row struct {
	Name          string
	AXPD1, AXPD16 float64 // percent
	PPCD1, PPCD16 float64
}

// Fig1Result is the full Figure 1 dataset.
type Fig1Result struct {
	Rows []Fig1Row
}

// Figure1 reproduces paper Figure 1: load value locality per benchmark,
// history depth 1 (light bars) and 16 (dark bars), one panel per target.
func (s *Suite) Figure1() (*Fig1Result, error) {
	res := &Fig1Result{Rows: make([]Fig1Row, len(bench.All()))}
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		row := Fig1Row{Name: b.Name}
		for _, tg := range prog.Targets {
			rs, err := s.Locality(b.Name, tg)
			if err != nil {
				return err
			}
			if tg.Name == "axp" {
				row.AXPD1, row.AXPD16 = rs[0].Overall.Percent(), rs[1].Overall.Percent()
			} else {
				row.PPCD1, row.PPCD16 = rs[0].Overall.Percent(), rs[1].Overall.Percent()
			}
		}
		res.Rows[i] = row
		return nil
	})
	return res, err
}

// Render writes both panels as bar charts.
func (r *Fig1Result) Render(w io.Writer) {
	for _, panel := range []struct {
		title string
		pick  func(Fig1Row) (float64, float64)
	}{
		{"Figure 1 (Alpha AXP panel): Load Value Locality [depth 1 / depth 16]",
			func(x Fig1Row) (float64, float64) { return x.AXPD1, x.AXPD16 }},
		{"Figure 1 (PowerPC panel): Load Value Locality [depth 1 / depth 16]",
			func(x Fig1Row) (float64, float64) { return x.PPCD1, x.PPCD16 }},
	} {
		c := report.BarChart{
			Title:  panel.title,
			Series: []string{"d1", "d16"},
			Max:    100,
			Unit:   "%",
		}
		for _, row := range r.Rows {
			d1, d16 := panel.pick(row)
			c.Groups = append(c.Groups, report.BarGroup{Label: row.Name, Values: []float64{d1, d16}})
		}
		c.Render(w)
	}
}

// Fig2Row is the per-data-type locality of one benchmark on the PPC target
// (paper Figure 2): FP data, int data, instruction addresses, data
// addresses, at depths 1 and 16.
type Fig2Row struct {
	Name string
	// Indexed by isa.LoadClass; [class][0] = depth 1, [class][1] = 16.
	Pct [isa.NumLoadClasses][2]float64
	// Share of the benchmark's loads in each class.
	Share [isa.NumLoadClasses]float64
}

// Fig2Result is the Figure 2 dataset.
type Fig2Result struct {
	Rows []Fig2Row
}

// Figure2 reproduces paper Figure 2: PowerPC value locality by data type.
func (s *Suite) Figure2() (*Fig2Result, error) {
	res := &Fig2Result{Rows: make([]Fig2Row, len(bench.All()))}
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		rs, err := s.Locality(b.Name, prog.PPC)
		if err != nil {
			return err
		}
		row := Fig2Row{Name: b.Name}
		total := rs[0].Overall.Total
		for c := isa.LoadClass(1); c < isa.NumLoadClasses; c++ {
			row.Pct[c][0] = rs[0].ByClass[c].Percent()
			row.Pct[c][1] = rs[1].ByClass[c].Percent()
			if total > 0 {
				row.Share[c] = float64(rs[0].ByClass[c].Total) / float64(total)
			}
		}
		res.Rows[i] = row
		return nil
	})
	return res, err
}

// Render writes one table per data type plus class shares.
func (r *Fig2Result) Render(w io.Writer) {
	t := report.Table{
		Title: "Figure 2: PowerPC Value Locality by Data Type (depth 1 / depth 16, % of that class)",
		Columns: []string{"Benchmark",
			"FP d1", "FP d16", "Int d1", "Int d16",
			"IAddr d1", "IAddr d16", "DAddr d1", "DAddr d16"},
	}
	f := func(v float64) string { return stats.Pct(v/100, 1) }
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			f(row.Pct[isa.LoadFPData][0]), f(row.Pct[isa.LoadFPData][1]),
			f(row.Pct[isa.LoadIntData][0]), f(row.Pct[isa.LoadIntData][1]),
			f(row.Pct[isa.LoadInstAddr][0]), f(row.Pct[isa.LoadInstAddr][1]),
			f(row.Pct[isa.LoadDataAddr][0]), f(row.Pct[isa.LoadDataAddr][1]))
	}
	t.Render(w)
}
