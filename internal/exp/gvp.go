package exp

import (
	"io"

	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
	"lvp/internal/report"
	"lvp/internal/stats"
)

// GVPRow compares load-only value prediction against general (all-result)
// value prediction on the 620 for one benchmark — the most aggressive §7
// direction, and historically the follow-up that grew out of this paper.
type GVPRow struct {
	Name string
	// LVPSimple is the ordinary Simple-configuration speedup.
	LVPSimple float64
	// GVPSimple predicts every register result with the same table
	// budget (no CVU).
	GVPSimple float64
	// GVPPerfect is the all-results-correct bound.
	GVPPerfect float64
}

// GVPResult is the general-value-prediction study.
type GVPResult struct {
	Rows []GVPRow
	GM   [3]float64
}

// GVPStudy runs the 620 with load-only and general value prediction.
func (s *Suite) GVPStudy() (*GVPResult, error) {
	res := &GVPResult{Rows: make([]GVPRow, len(bench.All()))}
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		mc := ppc620.Config620()
		base, err := s.Sim620(b.Name, mc, nil)
		if err != nil {
			return err
		}
		lvpSimple, err := s.Sim620(b.Name, mc, &lvp.Simple)
		if err != nil {
			return err
		}
		gvpSimple, err := s.sim620(b.Name, mc, &lvp.Simple, predAll)
		if err != nil {
			return err
		}
		gvpPerfect, err := s.sim620(b.Name, mc, &lvp.Perfect, predAll)
		if err != nil {
			return err
		}
		res.Rows[i] = GVPRow{
			Name:       b.Name,
			LVPSimple:  float64(base.Cycles) / float64(lvpSimple.Cycles),
			GVPSimple:  float64(base.Cycles) / float64(gvpSimple.Cycles),
			GVPPerfect: float64(base.Cycles) / float64(gvpPerfect.Cycles),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.GM = [3]float64{
		stats.GeoMean(column(res.Rows, func(r GVPRow) float64 { return r.LVPSimple })),
		stats.GeoMean(column(res.Rows, func(r GVPRow) float64 { return r.GVPSimple })),
		stats.GeoMean(column(res.Rows, func(r GVPRow) float64 { return r.GVPPerfect })),
	}
	return res, nil
}

// Render writes the study.
func (r *GVPResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Extension (paper §7): general value prediction on the 620 (speedup over base)",
		Columns: []string{"Benchmark", "LVP Simple", "GVP Simple", "GVP Perfect"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, stats.Ratio(row.LVPSimple),
			stats.Ratio(row.GVPSimple), stats.Ratio(row.GVPPerfect))
	}
	t.AddRow("GM", stats.Ratio(r.GM[0]), stats.Ratio(r.GM[1]), stats.Ratio(r.GM[2]))
	t.Render(w)
}
