package exp

import (
	"io"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/report"
	"lvp/internal/stats"
)

// MAFRow quantifies, for one benchmark, how much of the 21164's LVP gain
// depends on the paper's choice to omit the MAF (miss address file): the
// Simple-LVP speedup with blocking misses (paper baseline) versus with
// non-blocking misses (real 21164).
type MAFRow struct {
	Name string
	// BlockingIPC / NonBlockingIPC are base-model IPCs.
	BlockingIPC, NonBlockingIPC float64
	// SpeedupBlocking / SpeedupNonBlocking are Simple-LVP speedups over
	// the respective baselines.
	SpeedupBlocking, SpeedupNonBlocking float64
}

// MAFResult is the ablation dataset.
type MAFResult struct {
	Rows []MAFRow
	// GM of the two speedup columns.
	GMBlocking, GMNonBlocking float64
}

// MAFAblation runs the 21164 with and without the MAF. The paper accentuated
// in-order behaviour by omitting it; this quantifies how much of the
// reported gain that choice contributes.
func (s *Suite) MAFAblation() (*MAFResult, error) {
	res := &MAFResult{Rows: make([]MAFRow, len(bench.All()))}
	// The blocking runs are the paper's 21164 cells, shared with Figure 6
	// and Table 6 through the suite cache.
	blocking := axp21164.Config21164()
	nonblocking := blocking
	nonblocking.Name = "21164+MAF"
	nonblocking.NonBlocking = true
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		bBase, err := s.Sim21164(b.Name, blocking, nil)
		if err != nil {
			return err
		}
		bLVP, err := s.Sim21164(b.Name, blocking, &lvp.Simple)
		if err != nil {
			return err
		}
		nBase, err := s.Sim21164(b.Name, nonblocking, nil)
		if err != nil {
			return err
		}
		nLVP, err := s.Sim21164(b.Name, nonblocking, &lvp.Simple)
		if err != nil {
			return err
		}
		res.Rows[i] = MAFRow{
			Name:               b.Name,
			BlockingIPC:        bBase.IPC(),
			NonBlockingIPC:     nBase.IPC(),
			SpeedupBlocking:    float64(bBase.Cycles) / float64(bLVP.Cycles),
			SpeedupNonBlocking: float64(nBase.Cycles) / float64(nLVP.Cycles),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.GMBlocking = stats.GeoMean(column(res.Rows, func(r MAFRow) float64 { return r.SpeedupBlocking }))
	res.GMNonBlocking = stats.GeoMean(column(res.Rows, func(r MAFRow) float64 { return r.SpeedupNonBlocking }))
	return res, nil
}

// Render writes the ablation table.
func (r *MAFResult) Render(w io.Writer) {
	t := report.Table{
		Title: "Ablation: 21164 MAF (paper omits it) — Simple-LVP speedup with blocking vs non-blocking misses",
		Columns: []string{"Benchmark", "IPC no-MAF", "IPC MAF",
			"speedup no-MAF", "speedup MAF"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			stats.Ratio(row.BlockingIPC), stats.Ratio(row.NonBlockingIPC),
			stats.Ratio(row.SpeedupBlocking), stats.Ratio(row.SpeedupNonBlocking))
	}
	t.AddRow("GM", "", "", stats.Ratio(r.GMBlocking), stats.Ratio(r.GMNonBlocking))
	t.Render(w)
}
