package exp

import (
	"io"
	"sync"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
	"lvp/internal/report"
	"lvp/internal/stats"
)

// PPCConfigs are the LVP configurations simulated on the 620/620+ (paper
// Figure 6 lower panel / Table 6 order).
var PPCConfigs = []lvp.Config{lvp.Simple, lvp.Constant, lvp.Limit, lvp.Perfect}

// ppcMachines are the two PowerPC machines of Figures 7–9: the 620 and the
// 620+, in that order.
var ppcMachines = [2]ppc620.Config{ppc620.Config620(), ppc620.Config620Plus()}

// AXPConfigs are the configurations simulated on the 21164; the paper omits
// Constant there (§6.1).
var AXPConfigs = []lvp.Config{lvp.Simple, lvp.Limit, lvp.Perfect}

// Fig6Row holds base-machine speedups for one benchmark (paper Figure 6).
type Fig6Row struct {
	Name string
	// PPC speedups over the base 620, in PPCConfigs order.
	PPC [4]float64
	// AXP speedups over the base 21164, in AXPConfigs order.
	AXP [3]float64
}

// Fig6Result is the Figure 6 dataset plus geometric means.
type Fig6Result struct {
	Rows  []Fig6Row
	GMPPC [4]float64
	GMAXP [3]float64
}

// Figure6 reproduces paper Figure 6: base machine model speedups.
func (s *Suite) Figure6() (*Fig6Result, error) {
	res := &Fig6Result{Rows: make([]Fig6Row, len(bench.All()))}
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		row := Fig6Row{Name: b.Name}
		base620, err := s.Sim620(b.Name, ppc620.Config620(), nil)
		if err != nil {
			return err
		}
		for i := range PPCConfigs {
			st, err := s.Sim620(b.Name, ppc620.Config620(), &PPCConfigs[i])
			if err != nil {
				return err
			}
			row.PPC[i] = float64(base620.Cycles) / float64(st.Cycles)
		}
		base164, err := s.Sim21164(b.Name, axp21164.Config21164(), nil)
		if err != nil {
			return err
		}
		for i := range AXPConfigs {
			st, err := s.Sim21164(b.Name, axp21164.Config21164(), &AXPConfigs[i])
			if err != nil {
				return err
			}
			row.AXP[i] = float64(base164.Cycles) / float64(st.Cycles)
		}
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range PPCConfigs {
		res.GMPPC[i] = stats.GeoMean(column(res.Rows, func(r Fig6Row) float64 { return r.PPC[i] }))
	}
	for i := range AXPConfigs {
		res.GMAXP[i] = stats.GeoMean(column(res.Rows, func(r Fig6Row) float64 { return r.AXP[i] }))
	}
	return res, nil
}

// Render writes both panels.
func (r *Fig6Result) Render(w io.Writer) {
	axp := report.BarChart{
		Title:  "Figure 6 (Alpha AXP 21164): speedup over base model",
		Series: []string{"Simple", "Limit", "Perfect"},
		Max:    1.6,
	}
	for _, row := range r.Rows {
		axp.Groups = append(axp.Groups, report.BarGroup{Label: row.Name, Values: row.AXP[:]})
	}
	axp.Groups = append(axp.Groups, report.BarGroup{Label: "GM", Values: r.GMAXP[:]})
	axp.Render(w)

	ppc := report.BarChart{
		Title:  "Figure 6 (PowerPC 620): speedup over base model",
		Series: []string{"Simple", "Constant", "Limit", "Perfect"},
		Max:    1.6,
	}
	for _, row := range r.Rows {
		ppc.Groups = append(ppc.Groups, report.BarGroup{Label: row.Name, Values: row.PPC[:]})
	}
	ppc.Groups = append(ppc.Groups, report.BarGroup{Label: "GM", Values: r.GMPPC[:]})
	ppc.Render(w)
}

// Table6Row holds the 620+ numbers for one benchmark (paper Table 6).
type Table6Row struct {
	Name string
	// Cycles620 is the base-620 cycle count (the paper lists base
	// cycles in column 2).
	Cycles620 int
	// PlusSpeedup is 620+ (no LVP) over 620 (no LVP).
	PlusSpeedup float64
	// LVP are additional speedups of 620+ with each config over 620+
	// without LVP, in PPCConfigs order.
	LVP [4]float64
}

// Table6Result is the Table 6 dataset plus geometric means.
type Table6Result struct {
	Rows   []Table6Row
	GMPlus float64
	GMLVP  [4]float64
}

// Table6 reproduces paper Table 6: PowerPC 620+ speedups.
func (s *Suite) Table6() (*Table6Result, error) {
	res := &Table6Result{Rows: make([]Table6Row, len(bench.All()))}
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		base620, err := s.Sim620(b.Name, ppc620.Config620(), nil)
		if err != nil {
			return err
		}
		basePlus, err := s.Sim620(b.Name, ppc620.Config620Plus(), nil)
		if err != nil {
			return err
		}
		row := Table6Row{
			Name:        b.Name,
			Cycles620:   base620.Cycles,
			PlusSpeedup: float64(base620.Cycles) / float64(basePlus.Cycles),
		}
		for i := range PPCConfigs {
			st, err := s.Sim620(b.Name, ppc620.Config620Plus(), &PPCConfigs[i])
			if err != nil {
				return err
			}
			row.LVP[i] = float64(basePlus.Cycles) / float64(st.Cycles)
		}
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.GMPlus = stats.GeoMean(column(res.Rows, func(r Table6Row) float64 { return r.PlusSpeedup }))
	for i := range PPCConfigs {
		res.GMLVP[i] = stats.GeoMean(column(res.Rows, func(r Table6Row) float64 { return r.LVP[i] }))
	}
	return res, nil
}

// Render writes the table.
func (r *Table6Result) Render(w io.Writer) {
	t := report.Table{
		Title: "Table 6: PowerPC 620+ Speedups (620+ over 620; LVP columns relative to 620+ without LVP)",
		Columns: []string{"Benchmark", "620 cycles", "620+",
			"Simple", "Constant", "Limit", "Perfect"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Cycles620, stats.Ratio(row.PlusSpeedup),
			stats.Ratio(row.LVP[0]), stats.Ratio(row.LVP[1]),
			stats.Ratio(row.LVP[2]), stats.Ratio(row.LVP[3]))
	}
	t.AddRow("GM", "", stats.Ratio(r.GMPlus),
		stats.Ratio(r.GMLVP[0]), stats.Ratio(r.GMLVP[1]),
		stats.Ratio(r.GMLVP[2]), stats.Ratio(r.GMLVP[3]))
	t.Render(w)
}

// Fig7Result holds the load-verification latency distribution (paper
// Figure 7): per machine (620, 620+) and per LVP config, the percentage of
// correctly-predicted loads verified in each latency bucket, summed over the
// whole suite.
type Fig7Result struct {
	// Pct[machine][config][bucket]; machine 0 = 620, 1 = 620+.
	Pct [2][4][6]float64
}

// Figure7 reproduces paper Figure 7.
func (s *Suite) Figure7() (*Fig7Result, error) {
	res := &Fig7Result{}
	// Integer accumulation is commutative, so the merge stays
	// deterministic under any completion order; the mutex only guards the
	// concurrent read-modify-writes.
	var mu sync.Mutex
	var totals [2][4][6]int
	err := s.forEachBench(func(b bench.Benchmark) error {
		for mi, mc := range ppcMachines {
			for ci := range PPCConfigs {
				st, err := s.Sim620(b.Name, mc, &PPCConfigs[ci])
				if err != nil {
					return err
				}
				mu.Lock()
				for bu, v := range st.VerifyLatency {
					totals[mi][ci][bu] += v
				}
				mu.Unlock()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for mi := range totals {
		for ci := range totals[mi] {
			sum := 0
			for _, v := range totals[mi][ci] {
				sum += v
			}
			if sum == 0 {
				continue
			}
			for bu, v := range totals[mi][ci] {
				res.Pct[mi][ci][bu] = 100 * float64(v) / float64(sum)
			}
		}
	}
	return res, nil
}

// Render writes one table per machine.
func (r *Fig7Result) Render(w io.Writer) {
	for mi, mc := range ppcMachines {
		t := report.Table{
			Title:   "Figure 7 (PPC " + mc.Name + "): Load Verification Latency Distribution (% of correctly-predicted loads)",
			Columns: append([]string{"Config"}, ppc620.VerifyBuckets...),
		}
		for ci, cfg := range PPCConfigs {
			row := []any{cfg.Name}
			for _, v := range r.Pct[mi][ci] {
				row = append(row, stats.Pct(v/100, 1))
			}
			t.AddRow(row...)
		}
		t.Render(w)
	}
}

// Fig8Result holds the average reservation-station dependency-resolution
// wait by FU type, normalised to the no-LVP baseline (paper Figure 8).
type Fig8Result struct {
	// Norm[machine][config][fu] in percent of baseline; machine 0 =
	// 620, 1 = 620+.
	Norm [2][4][ppc620.NumFU]float64
}

// Figure8 reproduces paper Figure 8.
func (s *Suite) Figure8() (*Fig8Result, error) {
	res := &Fig8Result{}
	// Commutative integer sums; see Figure7 for the determinism argument.
	var mu sync.Mutex
	var waitSum [2][5][ppc620.NumFU]int64 // config index 4 = baseline
	var waitN [2][5][ppc620.NumFU]int64
	err := s.forEachBench(func(b bench.Benchmark) error {
		for mi, mc := range ppcMachines {
			for ci := 0; ci <= len(PPCConfigs); ci++ {
				var cfg *lvp.Config
				if ci < len(PPCConfigs) {
					cfg = &PPCConfigs[ci]
				}
				st, err := s.Sim620(b.Name, mc, cfg)
				if err != nil {
					return err
				}
				mu.Lock()
				for fu := 0; fu < int(ppc620.NumFU); fu++ {
					waitSum[mi][ci][fu] += st.RSWaitSum[fu]
					waitN[mi][ci][fu] += st.RSWaitN[fu]
				}
				mu.Unlock()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	avg := func(mi, ci, fu int) float64 {
		if waitN[mi][ci][fu] == 0 {
			return 0
		}
		return float64(waitSum[mi][ci][fu]) / float64(waitN[mi][ci][fu])
	}
	for mi := range res.Norm {
		for ci := range PPCConfigs {
			for fu := 0; fu < int(ppc620.NumFU); fu++ {
				base := avg(mi, len(PPCConfigs), fu)
				if base > 0 {
					res.Norm[mi][ci][fu] = 100 * avg(mi, ci, fu) / base
				}
			}
		}
	}
	return res, nil
}

// Render writes one table per machine.
func (r *Fig8Result) Render(w io.Writer) {
	fus := []ppc620.FU{ppc620.BRU, ppc620.FPU, ppc620.MCFX, ppc620.SCFX, ppc620.LSU}
	for mi, mc := range ppcMachines {
		t := report.Table{
			Title:   "Figure 8 (PPC " + mc.Name + "): Avg. RS dependency-wait, % of no-LVP baseline",
			Columns: []string{"Config", "BRU", "FPU", "MCFX", "SCFX", "LSU"},
		}
		for ci, cfg := range PPCConfigs {
			row := []any{cfg.Name}
			for _, fu := range fus {
				row = append(row, stats.Pct(r.Norm[mi][ci][fu]/100, 1))
			}
			t.AddRow(row...)
		}
		t.Render(w)
	}
}

// Fig9Row holds bank-conflict rates for one benchmark (paper Figure 9): the
// percentage of cycles with at least one L1 bank conflict, for no-LVP,
// Simple and Constant on the 620 and 620+.
type Fig9Row struct {
	Name string
	// Rate[machine][cfg]: cfg 0 = none, 1 = Simple, 2 = Constant.
	Rate [2][3]float64
}

// Fig9Result is the Figure 9 dataset.
type Fig9Result struct {
	Rows []Fig9Row
	// Mean[machine][cfg] is the arithmetic mean across benchmarks.
	Mean [2][3]float64
}

// Figure9 reproduces paper Figure 9.
func (s *Suite) Figure9() (*Fig9Result, error) {
	res := &Fig9Result{Rows: make([]Fig9Row, len(bench.All()))}
	cfgs := []*lvp.Config{nil, &lvp.Simple, &lvp.Constant}
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		row := Fig9Row{Name: b.Name}
		for mi, mc := range ppcMachines {
			for ci, cfg := range cfgs {
				st, err := s.Sim620(b.Name, mc, cfg)
				if err != nil {
					return err
				}
				row.Rate[mi][ci] = 100 * st.BankConflictRate()
			}
		}
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for mi := 0; mi < 2; mi++ {
		for ci := 0; ci < 3; ci++ {
			res.Mean[mi][ci] = stats.Mean(column(res.Rows, func(r Fig9Row) float64 { return r.Rate[mi][ci] }))
		}
	}
	return res, nil
}

// Render writes the chart per machine.
func (r *Fig9Result) Render(w io.Writer) {
	for mi, mc := range ppcMachines {
		c := report.BarChart{
			Title:  "Figure 9 (PPC " + mc.Name + "): % of cycles with L1 bank conflicts",
			Series: []string{"NoLVP", "Simple", "Constant"},
			Unit:   "%",
		}
		for _, row := range r.Rows {
			c.Groups = append(c.Groups, report.BarGroup{Label: row.Name, Values: row.Rate[mi][:]})
		}
		c.Groups = append(c.Groups, report.BarGroup{Label: "Mean", Values: r.Mean[mi][:]})
		c.Render(w)
	}
}
