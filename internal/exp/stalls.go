package exp

import (
	"io"

	"lvp/internal/bench"
	"lvp/internal/ppc620"
	"lvp/internal/report"
	"lvp/internal/stats"
)

// StallRow breaks down, per benchmark, the fraction of base-620 cycles in
// which dispatch stopped early for each structural reason.
type StallRow struct {
	Name       string
	RS         float64 // any reservation-station class full
	Rename     float64
	Completion float64
	MemSlots   float64
	FetchEmpty float64
}

// StallResult is the dispatch-stall diagnostic dataset.
type StallResult struct {
	Rows []StallRow
}

// Stalls collects the dispatch-stall breakdown of the base 620 (no LVP) —
// the companion diagnostic to the resource sweep.
func (s *Suite) Stalls() (*StallResult, error) {
	res := &StallResult{Rows: make([]StallRow, len(bench.All()))}
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		st, err := s.Sim620(b.Name, ppc620.Config620(), nil)
		if err != nil {
			return err
		}
		cyc := float64(max(1, st.Cycles))
		rs := 0
		for _, v := range st.StallRS {
			rs += v
		}
		res.Rows[i] = StallRow{
			Name:       b.Name,
			RS:         float64(rs) / cyc,
			Rename:     float64(st.StallRename) / cyc,
			Completion: float64(st.StallCompletion) / cyc,
			MemSlots:   float64(st.StallMemSlots) / cyc,
			FetchEmpty: float64(st.StallFetchEmpty) / cyc,
		}
		return nil
	})
	return res, err
}

// Render writes the breakdown. The columns can overlap-free sum below 100%:
// cycles where dispatch ran to full width stall on nothing.
func (r *StallResult) Render(w io.Writer) {
	t := report.Table{
		Title: "Diagnostics: base-620 dispatch stalls (% of cycles ending dispatch early, by reason)",
		Columns: []string{"Benchmark", "RS full", "Rename", "Completion",
			"Mem slots", "Fetch empty"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			stats.Pct(row.RS, 1), stats.Pct(row.Rename, 1),
			stats.Pct(row.Completion, 1), stats.Pct(row.MemSlots, 1),
			stats.Pct(row.FetchEmpty, 1))
	}
	t.Render(w)
}
