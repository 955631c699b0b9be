package lvp

import (
	"testing"

	"lvp/internal/trace"
)

// recordRef annotates recs one record at a time through Unit.Load and
// Unit.Store: the per-load reference every batched path must match.
func recordRef(t *testing.T, cfg Config, recs []trace.Record) (trace.Annotation, Stats) {
	t.Helper()
	u, err := NewUnit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ann := make(trace.Annotation, len(recs))
	for i := range recs {
		switch r := &recs[i]; {
		case r.IsLoad():
			ann[i] = u.Load(r.PC, r.Addr, r.Value)
		case r.IsStore():
			u.Store(r.Addr, int(r.Size))
		}
	}
	return ann, u.Stats()
}

// TestRecordBatchMatchesRecord pins Annotator.RecordBatch, over the whole
// trace and over odd-sized pieces of it, against the per-record reference on
// the same unit configuration.
func TestRecordBatchMatchesRecord(t *testing.T) {
	tr := mixedTrace(2048)
	for _, cfg := range Configs {
		recs := tr.Expand()
		wantAnn, wantStats := recordRef(t, cfg, recs)
		for _, k := range []int{1, 13, len(recs)} {
			a, err := NewAnnotator(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			states := make(trace.Annotation, len(recs))
			for i := 0; i < len(recs); i += k {
				j := min(i+k, len(recs))
				a.RecordBatch(recs[i:j], states[i:j])
			}
			for i := range states {
				if states[i] != wantAnn[i] {
					t.Fatalf("cfg %s pieces of %d, record %d: batch %v, per-record %v",
						cfg.Name, k, i, states[i], wantAnn[i])
				}
			}
			if st := a.Stats(); st != wantStats {
				t.Fatalf("cfg %s pieces of %d: stats diverged:\n record %+v\n batch  %+v", cfg.Name, k, wantStats, st)
			}
		}
	}
}

// BenchmarkAnnotatorRecordBatch measures the batched annotation hot path.
func BenchmarkAnnotatorRecordBatch(b *testing.B) {
	recs := mixedTrace(1 << 16).Expand()
	a, err := NewAnnotator(Simple, nil)
	if err != nil {
		b.Fatal(err)
	}
	states := make([]trace.PredState, len(recs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.RecordBatch(recs, states)
	}
	b.SetBytes(int64(len(recs)))
}
