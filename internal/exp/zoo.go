package exp

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/prog"
	"lvp/internal/report"
	"lvp/internal/stats"
)

// The predictor-zoo sweep: every registered predictor family (internal/lvp
// zoo registry) run over every benchmark's PPC trace, reporting coverage
// (hits over all loads), accuracy (hits over spoken predictions), and the
// table-interference counters that the tagged/set-associative organisations
// make observable. Cells are cached single-flight like every other suite
// artifact, so the lvpd zoo cells and the sweep share builds.

// ZooCell is one family × benchmark measurement — also the wire payload of
// an lvpd "zoo" cell (the served bytes are json.Marshal of this struct).
type ZooCell struct {
	Family string `json:"family"`
	Bench  string `json:"bench"`
	lvp.ZooMeasure
}

// ZooCell measures one predictor family over one benchmark's PPC trace,
// through the suite's single-flight cache.
func (s *Suite) ZooCell(benchName, family string) (ZooCell, error) {
	f, err := lvp.FamilyByName(family)
	if err != nil {
		return ZooCell{}, err
	}
	ctx := s.context()
	return s.cacheState().zoo.GetCtx(ctx, zooKey{benchName, family, s.Scale}, func() (ZooCell, error) {
		// Every family's cell for this benchmark measures over the
		// trace's shared load lanes.
		t, err := s.Trace(benchName, prog.PPC)
		if err != nil {
			return ZooCell{}, err
		}
		if err := ctx.Err(); err != nil {
			return ZooCell{}, err
		}
		start := time.Now()
		m := lvp.MeasureZoo(t, f.New())
		s.recordZooStats(m)
		s.finishPhase("zoo", start,
			slog.String("bench", benchName), slog.String("family", family))
		return ZooCell{Family: family, Bench: benchName, ZooMeasure: m}, nil
	})
}

// zooFamilies resolves the family selection: the suite's ZooFamilies field,
// or the full registry when it is empty.
func (s *Suite) zooFamilies() ([]string, error) {
	families := s.ZooFamilies
	if len(families) == 0 {
		return lvp.FamilyNames(), nil
	}
	for _, f := range families {
		if _, err := lvp.FamilyByName(f); err != nil {
			return nil, err
		}
	}
	return families, nil
}

// ZooResult is the family × workload ablation dataset: Cells is
// family-major ([family][benchmark], both in reporting order), the Mean
// slices are arithmetic means over the suite (several benchmarks earn a
// legitimate 0%, which would zero a geometric mean).
type ZooResult struct {
	Families   []string
	Benchmarks []string
	Cells      [][]lvp.ZooMeasure
	MeanCov    []float64
	MeanAcc    []float64
}

// ZooSweep measures the selected predictor families (the suite's
// ZooFamilies selection, or every registered family) over the whole suite.
func (s *Suite) ZooSweep() (*ZooResult, error) {
	fams, err := s.zooFamilies()
	if err != nil {
		return nil, err
	}
	all := bench.All()
	res := &ZooResult{
		Families:   fams,
		Benchmarks: bench.Names(),
		Cells:      make([][]lvp.ZooMeasure, len(fams)),
		MeanCov:    make([]float64, len(fams)),
		MeanAcc:    make([]float64, len(fams)),
	}
	// One flat fan-out over the whole family × benchmark grid, instead of a
	// per-family barrier: with F families and B benchmarks the pool sees
	// F×B tasks at once, so a slow family no longer serializes the sweep.
	// Flat slots indexed by grid position keep reductions in reporting
	// order, so the rendered bytes are identical for every worker count.
	flat := make([]lvp.ZooMeasure, len(fams)*len(all))
	err = s.forEachIdx(len(flat), func(k int) error {
		fi, bi := k/len(all), k%len(all)
		c, err := s.ZooCell(all[bi].Name, fams[fi])
		if err != nil {
			return err
		}
		flat[k] = c.ZooMeasure
		return nil
	})
	if err != nil {
		return nil, err
	}
	for fi := range fams {
		cells := flat[fi*len(all) : (fi+1)*len(all)]
		res.Cells[fi] = cells
		covs, accs := make([]float64, len(cells)), make([]float64, len(cells))
		for i, m := range cells {
			covs[i] = m.Coverage()
			accs[i] = m.Accuracy()
		}
		res.MeanCov[fi] = stats.Mean(covs)
		res.MeanAcc[fi] = stats.Mean(accs)
	}
	return res, nil
}

// Render writes the sweep: a coverage table and an accuracy table
// (benchmark rows × family columns), then the interference totals for the
// families whose tables can observe aliasing.
func (r *ZooResult) Render(w io.Writer) {
	pct := func(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

	cov := report.Table{
		Title:   "Predictor zoo: coverage (% of all loads predicted exactly, PPC)",
		Columns: append([]string{"Benchmark"}, r.Families...),
	}
	acc := report.Table{
		Title:   "Predictor zoo: accuracy (% of spoken predictions exact, PPC)",
		Columns: append([]string{"Benchmark"}, r.Families...),
	}
	for bi, name := range r.Benchmarks {
		covRow := make([]any, 0, len(r.Families)+1)
		accRow := make([]any, 0, len(r.Families)+1)
		covRow = append(covRow, name)
		accRow = append(accRow, name)
		for fi := range r.Families {
			m := r.Cells[fi][bi]
			covRow = append(covRow, pct(m.Coverage()))
			accRow = append(accRow, pct(m.Accuracy()))
		}
		cov.AddRow(covRow...)
		acc.AddRow(accRow...)
	}
	covMean := []any{"Mean"}
	accMean := []any{"Mean"}
	for fi := range r.Families {
		covMean = append(covMean, pct(r.MeanCov[fi]))
		accMean = append(accMean, pct(r.MeanAcc[fi]))
	}
	cov.AddRow(covMean...)
	acc.AddRow(accMean...)
	cov.Render(w)
	acc.Render(w)

	inter := report.Table{
		Title:   "Predictor zoo: table interference over the suite (tagged/assoc families)",
		Columns: []string{"Family", "Tag misses", "Alias evicts"},
	}
	rows := 0
	for fi, fam := range r.Families {
		var tagMiss, aliasEvict int64
		for _, m := range r.Cells[fi] {
			tagMiss += m.TagMisses
			aliasEvict += m.AliasEvicts
		}
		if tagMiss == 0 && aliasEvict == 0 {
			continue
		}
		inter.AddRow(fam, tagMiss, aliasEvict)
		rows++
	}
	if rows > 0 {
		inter.Render(w)
	}
}
