package exp

import (
	"slices"
	"testing"

	"lvp/internal/bench"
	"lvp/internal/isa"
	"lvp/internal/locality"
	"lvp/internal/lvp"
	"lvp/internal/prog"
	"lvp/internal/trace"
)

// The load-stream walks behind fig1, fig2, gvl, predictors and pathlvp are
// each taken once per trace: one locality walk for both depths, one zoo
// walk per predictor family over the cached load slab (shared by the zoo
// sweep and the predictors table), and all path-LVPT tables in one pass. These tests pin each one-walk form to the per-statistic record
// walk it replaced, over every workload's PPC trace (-short keeps three).

// walkBenches is the workload list the walk differentials cover.
func walkBenches() []bench.Benchmark {
	if testing.Short() {
		return bench.All()[:3]
	}
	return bench.All()
}

// recordWalkAccuracy is the reference record-stream predictor walk: every
// load of the trace, predicted (always speaking) and then trained.
func recordWalkAccuracy(t *trace.Trace, p lvp.Predictor) locality.Ratio {
	var r locality.Ratio
	recs := t.Expand()
	for i := range recs {
		rec := &recs[i]
		if !rec.IsLoad() {
			continue
		}
		r.Total++
		if p.Predict(rec.PC) == rec.Value {
			r.Hits++
		}
		p.Update(rec.PC, rec.Value)
	}
	return r
}

// singlePathWalk is the one-table path-LVPT walk the fused
// MeasurePathAccuracy replaced.
func singlePathWalk(t *trace.Trace, entries, histBits int) locality.Ratio {
	p := lvp.NewPathLVP(entries, histBits)
	var r locality.Ratio
	recs := t.Expand()
	for i := range recs {
		rec := &recs[i]
		if isa.IsCondBranch(rec.Op) {
			p.Branch(rec.Taken)
			continue
		}
		if !rec.IsLoad() {
			continue
		}
		r.Total++
		if p.Predict(rec.PC) == rec.Value {
			r.Hits++
		}
		p.Update(rec.PC, rec.Value)
	}
	return r
}

// TestFusedPathWalk checks one MeasurePathAccuracy pass over four tables
// scores each table exactly as its own walk does.
func TestFusedPathWalk(t *testing.T) {
	histBits := []int{0, 2, 4, 8}
	for _, b := range walkBenches() {
		tr, err := NewSuite(1).Trace(b.Name, prog.PPC)
		if err != nil {
			t.Fatal(err)
		}
		got := lvp.MeasurePathAccuracy(tr, 4096, histBits...)
		if len(got) != len(histBits) {
			t.Fatalf("%s: %d ratios for %d tables", b.Name, len(got), len(histBits))
		}
		for i, hb := range histBits {
			if want := singlePathWalk(tr, 4096, hb); got[i] != want {
				t.Errorf("%s: %d history bits: fused %+v, single walk %+v", b.Name, hb, got[i], want)
			}
		}
	}
}

// TestSlabPredictorWalk checks MeasureZoo over the trace's load lanes counts
// as Exact exactly the loads the record walk predicts right, for every registered family: the predictor
// study's always-speaking column comes out of the zoo's one walk.
func TestSlabPredictorWalk(t *testing.T) {
	for _, b := range walkBenches() {
		s := NewSuite(1)
		tr, err := s.Trace(b.Name, prog.PPC)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range lvp.Families() {
			want := recordWalkAccuracy(tr, f.New())
			zm := lvp.MeasureZoo(tr, f.New())
			if got := (locality.Ratio{Hits: int(zm.Exact), Total: int(zm.Loads)}); got != want {
				t.Errorf("%s %s: load-lane Exact/Loads %+v, record walk %+v", b.Name, f.Name, got, want)
			}
		}
	}
}

// TestPredictorStudyReadsZooCells checks the predictors table is read from
// the zoo sweep's cells: after ZooSweep, PredictorStudy builds no zoo cell
// and walks no predictor of its own, and each column is its cell's
// Exact/Loads.
func TestPredictorStudyReadsZooCells(t *testing.T) {
	s := NewSuite(1)
	if _, err := s.ZooSweep(nil); err != nil {
		t.Fatal(err)
	}
	before := s.Metrics.Snapshot()
	res, err := s.PredictorStudy()
	if err != nil {
		t.Fatal(err)
	}
	after := s.Metrics.Snapshot()
	if d := after.Counters["progress.zoo"] - before.Counters["progress.zoo"]; d != 0 {
		t.Errorf("PredictorStudy built %d zoo cells after ZooSweep, want 0", d)
	}
	if d := after.Counters["progress.walk"] - before.Counters["progress.walk"]; d != 0 {
		t.Errorf("PredictorStudy ran %d walks of its own, want 0", d)
	}
	for _, row := range res.Rows {
		for fam, got := range map[string]float64{"last-value": row.LastValue,
			"two-value": row.TwoValue, "stride": row.Stride, "context-2": row.Context} {
			c, err := s.ZooCell(row.Name, fam)
			if err != nil {
				t.Fatal(err)
			}
			if want := (locality.Ratio{Hits: int(c.Exact), Total: int(c.Loads)}).Percent(); got != want {
				t.Errorf("%s %s: predictors column %v, zoo cell %v", row.Name, fam, got, want)
			}
		}
	}
}

// TestSuiteLocalityWalk checks Suite.Locality equals a direct
// locality.Measure at depths 1 and 16 on both targets, is built once per
// trace (a repeat call returns the cached result), and is accounted as the
// locality phase.
func TestSuiteLocalityWalk(t *testing.T) {
	for _, b := range walkBenches() {
		s := NewSuite(1)
		for _, tg := range prog.Targets {
			tr, err := s.Trace(b.Name, tg)
			if err != nil {
				t.Fatal(err)
			}
			want := locality.Measure(tr, locality.DefaultEntries, 1, 16)
			got, err := s.Locality(b.Name, tg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s/%s: Suite.Locality %+v, direct walk %+v", b.Name, tg.Name, got, want)
			}
			again, err := s.Locality(b.Name, tg)
			if err != nil {
				t.Fatal(err)
			}
			if &again[0] != &got[0] {
				t.Errorf("%s/%s: a repeat call measured again instead of sharing the cached walk", b.Name, tg.Name)
			}
		}
		snap := s.Metrics.Snapshot()
		if n := snap.Counters["progress.locality"]; n != int64(len(prog.Targets)) {
			t.Errorf("%s: progress.locality = %d, want one per target (%d)", b.Name, n, len(prog.Targets))
		}
		if tm := snap.Timers["phase.locality"]; tm.Count != int64(len(prog.Targets)) {
			t.Errorf("%s: phase.locality timed %d builds, want %d", b.Name, tm.Count, len(prog.Targets))
		}
	}
}
