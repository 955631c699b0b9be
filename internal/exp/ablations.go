package exp

import (
	"fmt"
	"io"
	"sync"

	"lvp/internal/bench"
	"lvp/internal/locality"
	"lvp/internal/lvp"
	"lvp/internal/prog"
	"lvp/internal/report"
	"lvp/internal/stats"
)

// The ablation studies below are not paper figures; they exercise the
// design-space directions the paper's §7 calls out (table sizing,
// classification, and predictors beyond last-value).

// Default points of the three unit-geometry sweeps.
var (
	lvptSweepSizes = []int{256, 512, 1024, 2048, 4096, 8192}
	lctSweepBits   = []int{1, 2, 3}
	cvuSweepSizes  = []int{8, 16, 32, 64, 128, 256}
)

// lvptSweepConfig is the Simple unit with an LVPT of size entries.
func lvptSweepConfig(size int) lvp.Config {
	cfg := lvp.Simple
	cfg.Name = fmt.Sprintf("Simple/%d", size)
	cfg.LVPTEntries = size
	return cfg
}

// lctSweepConfig is the Simple unit with bits-wide LCT counters.
func lctSweepConfig(bits int) lvp.Config {
	cfg := lvp.Simple
	cfg.Name = fmt.Sprintf("Simple/lct%d", bits)
	cfg.LCTBits = bits
	return cfg
}

// cvuSweepConfig is the Constant unit with a CVU of size entries.
func cvuSweepConfig(size int) lvp.Config {
	cfg := lvp.Constant
	cfg.Name = fmt.Sprintf("Constant/cvu%d", size)
	cfg.CVUEntries = size
	return cfg
}

// unitConfigs lists every LVP unit configuration the suite annotates with:
// the paper's Table 2 rows, the ablation configurations and every default
// point of the three unit-geometry sweeps, in that order.
func unitConfigs() []lvp.Config {
	cfgs := append(append([]lvp.Config{}, lvp.Configs...), lvp.AblationConfigs...)
	for _, n := range lvptSweepSizes {
		cfgs = append(cfgs, lvptSweepConfig(n))
	}
	for _, b := range lctSweepBits {
		cfgs = append(cfgs, lctSweepConfig(b))
	}
	for _, n := range cvuSweepSizes {
		cfgs = append(cfgs, cvuSweepConfig(n))
	}
	return cfgs
}

// runNames maps each hardware identity among unitConfigs to the name of
// the first configuration listed with it.
var runNames = sync.OnceValue(func() map[lvp.Config]string {
	names := map[lvp.Config]string{}
	for _, cfg := range unitConfigs() {
		if _, ok := names[hwConfig(cfg)]; !ok {
			names[hwConfig(cfg)] = cfg.Name
		}
	}
	return names
})

// runConfig is cfg under the name its shared unit run or simulation is
// labelled with in phase spans and tracer events: the unitConfigs name of
// its hardware identity, so the label does not depend on which requester
// happened to build the shared entry (LCT sweep 2-bit runs as "Simple").
// A configuration outside unitConfigs keeps its own name; it labels a run
// shared with another such alias by whichever of the two built it.
func runConfig(cfg lvp.Config) lvp.Config {
	if name, ok := runNames()[hwConfig(cfg)]; ok {
		cfg.Name = name
	}
	return cfg
}

// LVPTSweepResult holds prediction coverage (fraction of loads predicted
// correctly, Simple-style unit) as the LVPT size grows.
type LVPTSweepResult struct {
	Sizes []int
	// Coverage[i] is the suite geometric-mean coverage at Sizes[i].
	Coverage []float64
}

// LVPTSweep measures untagged-table interference: coverage vs LVPT entries
// on the PPC target.
func (s *Suite) LVPTSweep(sizes []int) (*LVPTSweepResult, error) {
	if len(sizes) == 0 {
		sizes = lvptSweepSizes
	}
	res := &LVPTSweepResult{Sizes: sizes, Coverage: make([]float64, len(sizes))}
	for i, size := range sizes {
		sts, err := s.suiteStats(lvptSweepConfig(size))
		if err != nil {
			return nil, err
		}
		res.Coverage[i] = stats.GeoMean(column(sts, lvp.Stats.Coverage))
	}
	return res, nil
}

// suiteStats returns the unit statistics of cfg on every benchmark's PPC
// trace. Per-benchmark slots keep the sweeps' reduction order (and thus
// their floating-point rounding) independent of completion order.
func (s *Suite) suiteStats(cfg lvp.Config) ([]lvp.Stats, error) {
	sts := make([]lvp.Stats, len(bench.All()))
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		var err error
		sts[i], err = s.AnnotationStats(b.Name, prog.PPC, cfg)
		return err
	})
	return sts, err
}

// Render writes the sweep.
func (r *LVPTSweepResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Ablation: LVPT size vs prediction coverage (GM over suite, PPC, Simple LCT/CVU)",
		Columns: []string{"LVPT entries", "Coverage"},
	}
	for i, sz := range r.Sizes {
		t.AddRow(sz, stats.Pct(r.Coverage[i], 1))
	}
	t.Render(w)
}

// LCTBitsResult compares classifier widths.
type LCTBitsResult struct {
	Bits     []int
	Accuracy []float64 // GM prediction accuracy when predicting
	Coverage []float64 // GM fraction of loads predicted correctly
}

// LCTBitsSweep measures classification quality vs counter width.
func (s *Suite) LCTBitsSweep(bits []int) (*LCTBitsResult, error) {
	if len(bits) == 0 {
		bits = lctSweepBits
	}
	res := &LCTBitsResult{Bits: bits,
		Accuracy: make([]float64, len(bits)), Coverage: make([]float64, len(bits))}
	for i, b := range bits {
		sts, err := s.suiteStats(lctSweepConfig(b))
		if err != nil {
			return nil, err
		}
		res.Accuracy[i] = stats.GeoMean(column(sts, lvp.Stats.Accuracy))
		res.Coverage[i] = stats.GeoMean(column(sts, lvp.Stats.Coverage))
	}
	return res, nil
}

// Render writes the sweep.
func (r *LCTBitsResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Ablation: LCT counter width (GM over suite, PPC)",
		Columns: []string{"Bits", "Accuracy", "Coverage"},
	}
	for i, b := range r.Bits {
		t.AddRow(b, stats.Pct(r.Accuracy[i], 1), stats.Pct(r.Coverage[i], 1))
	}
	t.Render(w)
}

// CVUSweepResult holds constant coverage vs CVU capacity.
type CVUSweepResult struct {
	Sizes     []int
	ConstRate []float64
}

// CVUSweep measures the CVU-capacity sensitivity of constant verification.
func (s *Suite) CVUSweep(sizes []int) (*CVUSweepResult, error) {
	if len(sizes) == 0 {
		sizes = cvuSweepSizes
	}
	res := &CVUSweepResult{Sizes: sizes, ConstRate: make([]float64, len(sizes))}
	for i, size := range sizes {
		sts, err := s.suiteStats(cvuSweepConfig(size))
		if err != nil {
			return nil, err
		}
		res.ConstRate[i] = stats.Mean(column(sts, lvp.Stats.ConstantRate))
	}
	return res, nil
}

// Render writes the sweep.
func (r *CVUSweepResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Ablation: CVU capacity vs constant-identification rate (mean over suite, PPC)",
		Columns: []string{"CVU entries", "Constant rate"},
	}
	for i, sz := range r.Sizes {
		t.AddRow(sz, stats.Pct(r.ConstRate[i], 1))
	}
	t.Render(w)
}

// PredictorRow compares predictor accuracies for one benchmark (paper §7:
// stride detection, context prediction and multi-value tables as future
// work).
type PredictorRow struct {
	Name      string
	LastValue float64
	TwoValue  float64 // buildable depth-2 with a trained selector
	Stride    float64
	Context   float64
	Locality1 float64 // depth-1 value locality (upper bound for last-value)
}

// PredictorResult is the predictor-comparison dataset.
type PredictorResult struct {
	Rows []PredictorRow
	GM   [5]float64
}

// PredictorStudy measures last-value vs stride vs order-2 context
// prediction accuracy over the suite (PPC target, 1K-entry tables). Each
// predictor is made to always speak, so the columns are the suite's zoo
// cells' Exact counts over all loads; in a full run the zoo sweep builds
// the same cells.
func (s *Suite) PredictorStudy() (*PredictorResult, error) {
	res := &PredictorResult{Rows: make([]PredictorRow, len(bench.All()))}
	err := s.forEachBenchIdx(func(i int, b bench.Benchmark) error {
		var pct [4]float64
		for k, fam := range []string{"last-value", "two-value", "stride", "context-2"} {
			c, err := s.ZooCell(b.Name, fam)
			if err != nil {
				return err
			}
			pct[k] = locality.Ratio{Hits: int(c.Exact), Total: int(c.Loads)}.Percent()
		}
		loc, err := s.Locality(b.Name, prog.PPC)
		if err != nil {
			return err
		}
		res.Rows[i] = PredictorRow{
			Name:      b.Name,
			LastValue: pct[0],
			TwoValue:  pct[1],
			Stride:    pct[2],
			Context:   pct[3],
			Locality1: loc[0].Overall.Percent(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Arithmetic means: tomcatv's legitimate 0% would zero a GM.
	res.GM = [5]float64{
		stats.Mean(column(res.Rows, func(r PredictorRow) float64 { return r.LastValue })),
		stats.Mean(column(res.Rows, func(r PredictorRow) float64 { return r.TwoValue })),
		stats.Mean(column(res.Rows, func(r PredictorRow) float64 { return r.Stride })),
		stats.Mean(column(res.Rows, func(r PredictorRow) float64 { return r.Context })),
		stats.Mean(column(res.Rows, func(r PredictorRow) float64 { return r.Locality1 })),
	}
	return res, nil
}

// Render writes the comparison.
func (r *PredictorResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Extension study (paper §7): predictor accuracy (% of loads predicted exactly, PPC)",
		Columns: []string{"Benchmark", "Last-value", "Two-value", "Stride", "Context-2", "d1 locality"},
	}
	f := func(v float64) string { return fmt.Sprintf("%.1f%%", v) }
	for _, row := range r.Rows {
		t.AddRow(row.Name, f(row.LastValue), f(row.TwoValue), f(row.Stride),
			f(row.Context), f(row.Locality1))
	}
	t.AddRow("Mean", f(r.GM[0]), f(r.GM[1]), f(r.GM[2]), f(r.GM[3]), f(r.GM[4]))
	t.Render(w)
}
