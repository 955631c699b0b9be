package lvp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
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

// pipeDrain pulls a Pipe slab by slab, materializing everything, and
// returns the records, states and the terminal error (nil for io.EOF).
func pipeDrain(p *Pipe) ([]trace.Record, trace.Annotation, error) {
	var recs []trace.Record
	var ann trace.Annotation
	for {
		r, st, err := p.NextSlab()
		if err == io.EOF {
			return recs, ann, nil
		}
		if err != nil {
			return recs, ann, err
		}
		if len(r) == 0 || len(st) != len(r) {
			return recs, ann, fmt.Errorf("slab of %d records with %d states", len(r), len(st))
		}
		recs = append(recs, r...)
		ann = append(ann, st...)
	}
}

// chunkSource caps every NextBatch of the wrapped source at k records, so a
// Pipe refills at an arbitrary granularity.
type chunkSource struct {
	trace.BatchSource
	k int
}

func (c chunkSource) NextBatch(buf []trace.Record) (int, error) {
	return c.BatchSource.NextBatch(buf[:min(c.k, len(buf))])
}

// TestPipeNextBatchMatchesNext is the annotation-layer batch differential:
// for every paper configuration, a Pipe refilled through NextBatch — from
// the in-memory slice source and from the VLT2 IndexedReader, at
// refill sizes 1, 7 and the full buffer — must produce exactly the records,
// states and unit statistics of the record-at-a-time reference.
func TestPipeNextBatchMatchesNext(t *testing.T) {
	tr := mixedTrace(4096)
	var enc bytes.Buffer
	if err := trace.Write2(&enc, tr, trace.Writer2Options{}); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range Configs {
		t.Run(cfg.Name, func(t *testing.T) {
			wantAnn, wantStats := recordRef(t, cfg, tr.Expand())
			for _, k := range []int{1, 7, pipeBatch} {
				rd, err := trace.NewIndexedReaderBytes(enc.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				for name, src := range map[string]trace.BatchSource{"slice": &recSource{tr.Expand()}, "reader": rd} {
					p, err := NewPipe(chunkSource{src, k}, cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					recs, ann, err := pipeDrain(p)
					if err != nil {
						t.Fatalf("refill %d (%s src): %v", k, name, err)
					}
					if !reflect.DeepEqual(recs, tr.Expand()) || !reflect.DeepEqual(ann, wantAnn) {
						t.Fatalf("refill %d (%s src): pipe diverged from the per-record reference", k, name)
					}
					if p.Stats() != wantStats {
						t.Fatalf("refill %d (%s src): stats diverged", k, name)
					}
				}
			}
		})
	}
}

// recSource streams the records of an in-memory trace as a BatchSource.
type recSource struct{ recs []trace.Record }

func (s *recSource) NextBatch(buf []trace.Record) (int, error) {
	if len(s.recs) == 0 {
		return 0, io.EOF
	}
	n := copy(buf, s.recs)
	s.recs = s.recs[n:]
	return n, nil
}

// errSource yields its records in one batch together with a non-EOF error,
// the records-then-error case of the BatchSource contract.
type errSource struct {
	recs []trace.Record
	err  error
	done bool
}

func (s *errSource) NextBatch(buf []trace.Record) (int, error) {
	if s.done {
		return 0, s.err
	}
	s.done = true
	return copy(buf, s.recs), s.err
}

// TestPipeDeliversRecordsBeforeError: when a refill arrives as (n > 0, err),
// the Pipe must hand out those n annotated records first and then return
// the error on every later call.
func TestPipeDeliversRecordsBeforeError(t *testing.T) {
	boom := errors.New("boom")
	recs := mixedTrace(5).Expand()
	p, err := NewPipe(&errSource{recs: recs, err: boom}, Simple, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := p.NextSlab()
	if err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("first slab: %d records, err %v; want all %d records first", len(got), err, len(recs))
	}
	for i := 0; i < 2; i++ {
		if r, st, err := p.NextSlab(); err != boom || r != nil || st != nil {
			t.Fatalf("after the records: err = %v, want boom (sticky)", err)
		}
	}
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

// TestPipeNextBatchAllocFree pins the fused gen→annotate hop — one NextBatch
// refill plus its RecordBatch annotation per slab — at zero allocations per
// slab in steady state.
func TestPipeNextBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tr := mixedTrace(1 << 20)
	p, err := NewPipe(&recSource{tr.Expand()}, Simple, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up.
	for i := 0; i < 64; i++ {
		if _, _, err := p.NextSlab(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		if _, _, err := p.NextSlab(); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Pipe.NextSlab allocates %v allocs/slab, want 0", avg)
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
