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

// TestSourceBatchSizes: executing a program through NextBatch must yield
// exactly Run's records and Result, and a sticky EOF, for batch sizes from
// degenerate to larger than the whole trace.
func TestSourceBatchSizes(t *testing.T) {
	p := batchProgram(t)
	want, wantRes, err := Run(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, bufSize := range []int{1, 7, 256, 1 << 20} {
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
		if !reflect.DeepEqual(got, want.Records) {
			t.Fatalf("bufSize %d: batched execution diverged from Run", bufSize)
		}
		if !reflect.DeepEqual(s.Result(), wantRes) {
			t.Fatalf("bufSize %d: Result diverged: %+v vs %+v", bufSize, s.Result(), wantRes)
		}
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

// BenchmarkSourceGen executes a real workload to EOF in 256-record batches.
func BenchmarkSourceGen(b *testing.B) {
	p := batchProgram(b)
	buf := make([]trace.Record, 256)
	recs := 0
	for i := 0; i < b.N; i++ {
		s := NewSource(p, 0)
		for {
			if _, err := s.NextBatch(buf); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		recs = s.Result().Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(recs), "ns/rec")
}
