package vm

import (
	"io"
	"reflect"
	"testing"

	"lvp/internal/bench"
	"lvp/internal/prog"
	"lvp/internal/trace"
)

// batchProgram builds a real workload big enough to cross many batch
// boundaries.
func batchProgram(t testing.TB) *prog.Program {
	t.Helper()
	bm, err := bench.ByName("quick")
	if err != nil {
		t.Fatal(err)
	}
	p, err := bm.Build(prog.AXP, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSourceNextBatchMatchesNext: executing a program through NextBatch
// must yield exactly the record sequence, final Result, and EOF behavior of
// the record-at-a-time Next, for batch sizes from degenerate to larger than
// the whole trace.
func TestSourceNextBatchMatchesNext(t *testing.T) {
	p := batchProgram(t)
	ref := NewSource(p, 0)
	var want []trace.Record
	for {
		r, err := ref.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, *r)
	}
	wantRes := ref.Result()

	for _, bufSize := range []int{1, 3, 256, 1 << 20} {
		s := NewSource(p, 0)
		buf := make([]trace.Record, bufSize)
		var got []trace.Record
		for {
			n, err := s.NextBatch(buf)
			got = append(got, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("bufSize %d: %v", bufSize, err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("bufSize %d: batched execution diverged from Next", bufSize)
		}
		if !reflect.DeepEqual(s.Result(), wantRes) {
			t.Fatalf("bufSize %d: Result diverged: %+v vs %+v", bufSize, s.Result(), wantRes)
		}
		// EOF must be sticky in both forms.
		if n, err := s.NextBatch(buf); n != 0 || err != io.EOF {
			t.Fatalf("bufSize %d: post-EOF NextBatch = (%d, %v)", bufSize, n, err)
		}
	}
}

// TestSourceNextBatchStepLimit: an execution error must surface after the
// records already retired in the same batch.
func TestSourceNextBatchStepLimit(t *testing.T) {
	p := batchProgram(t)
	s := NewSource(p, 100) // trips mid-batch
	buf := make([]trace.Record, 256)
	n, err := s.NextBatch(buf)
	if n != 100 {
		t.Fatalf("retired %d records before the limit, want 100", n)
	}
	if err == nil {
		t.Fatal("step limit must surface as an error")
	}
}

// BenchmarkSourceGen executes a real workload to EOF record by record
// ("next") and in 256-record batches ("batch").
func BenchmarkSourceGen(b *testing.B) {
	p := batchProgram(b)
	buf := make([]trace.Record, 256)
	for _, c := range []struct {
		name  string
		drain func(*Source) error
	}{
		{"next", func(s *Source) error {
			for {
				if _, err := s.Next(); err != nil {
					return err
				}
			}
		}},
		{"batch", func(s *Source) error {
			for {
				if _, err := s.NextBatch(buf); err != nil {
					return err
				}
			}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			recs := 0
			for i := 0; i < b.N; i++ {
				s := NewSource(p, 0)
				if err := c.drain(s); err != io.EOF {
					b.Fatal(err)
				}
				recs = s.Result().Steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(recs), "ns/rec")
		})
	}
}
