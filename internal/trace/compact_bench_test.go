package trace_test

import (
	"testing"

	"lvp/internal/bench"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// workloadTrace runs one suite workload (gcc's cc1 on the PPC target, the
// largest static footprint after perl) for the compact-trace benchmarks.
func workloadTrace(b *testing.B) *trace.Trace {
	bm, err := bench.ByName("cc1")
	if err != nil {
		b.Fatal(err)
	}
	p, err := bm.Build(prog.PPC, 1)
	if err != nil {
		b.Fatal(err)
	}
	tr, _, err := vm.Run(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkTraceBatches measures the expansion of a compact workload trace
// into the batches the walks and the timing models read, per record.
func BenchmarkTraceBatches(b *testing.B) {
	tr := workloadTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range tr.Batches() {
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/rec")
}

// BenchmarkTraceBuild measures FromRecords compacting the same workload's
// records, per record, and the built trace's resident bytes per record.
func BenchmarkTraceBuild(b *testing.B) {
	recs := workloadTrace(b).Expand()
	var tr *trace.Trace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr = trace.FromRecords("cc1", "ppc", recs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(recs)), "ns/rec")
	b.ReportMetric(float64(tr.ResidentBytes())/float64(len(recs)), "B/rec")
}

// BenchmarkTraceWalk measures a Walker over the same workload, per record:
// each record's row, and its Addr on a load or a store.
func BenchmarkTraceWalk(b *testing.B) {
	tr := workloadTrace(b)
	kind := make([]bool, len(tr.Static()))
	for j, s := range tr.Static() {
		kind[j] = s.IsLoad() || s.IsStore()
	}
	var sum uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := tr.Walk()
		for range tr.Len() {
			if row := w.Next(); kind[row] {
				sum += w.Addr()
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/rec")
}
