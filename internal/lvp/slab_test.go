package lvp

import (
	"reflect"
	"testing"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

func slabLoad(pc, addr, value uint64) trace.Record {
	return trace.Record{PC: pc, Op: isa.LD, Rd: 3, Ra: 1, Addr: addr, Value: value, Size: 8, Class: isa.LoadIntData}
}

func slabStore(addr uint64, size uint8) trace.Record {
	return trace.Record{PC: 0x5000, Op: isa.SW, Ra: 1, Rb: 3, Addr: addr, Size: size}
}

// checkSlabMatchesRecordBatch annotates recs through RecordBatch (the
// reference) and through the slab walk, with its load-order states
// scattered back per record, under every unit configuration, and demands
// identical states and identical Stats.
func checkSlabMatchesRecordBatch(t *testing.T, recs []trace.Record) {
	t.Helper()
	tr := trace.FromRecords("slab", "ppc", recs)
	slab := tr.Mem()
	cfgs := append(append([]Config{}, Configs...), AblationConfigs...)
	for _, cfg := range cfgs {
		ref, err := NewAnnotator(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := make(trace.Annotation, len(recs))
		ref.RecordBatch(recs, want)

		states := make([]trace.PredState, slab.Len())
		st, err := AnnotateSlab(slab, cfg, nil, states)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Scatter(states); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scattered slab states differ from RecordBatch", cfg.Name)
		}
		if st != ref.Stats() {
			t.Fatalf("%s: stats diverged:\n slab        %+v\n RecordBatch %+v", cfg.Name, st, ref.Stats())
		}
	}
}

// TestSlabMatchesRecordBatch runs the slab walk against RecordBatch on the
// mixed workload and on the slab's edge cases: an empty trace, a store-only
// trace, a load-only trace, a load run of thousands of loads, leading,
// back-to-back and trailing stores, and loads after the last store.
func TestSlabMatchesRecordBatch(t *testing.T) {
	longRun := []trace.Record{slabStore(0x2000, 8)}
	for i := 0; i < 3077; i++ {
		// Few PCs and addresses, so the run drives the LCT to constant
		// and exercises CVU inserts, hits and index invalidations.
		longRun = append(longRun, slabLoad(0x1000+8*uint64(i%5), 0x2000+8*uint64(i%3), uint64(i%7/6)))
	}
	longRun = append(longRun, slabStore(0x2008, 4))

	var trailing []trace.Record
	for i := 0; i < 64; i++ {
		trailing = append(trailing, slabLoad(0x1000, 0x2000, 42))
	}
	trailing = append(trailing, slabStore(0x2000, 8), slabStore(0x2000, 1), slabStore(0x3000, 8))

	loadsOnly := make([]trace.Record, 1025)
	for i := range loadsOnly {
		loadsOnly[i] = slabLoad(0x1000+8*uint64(i%3), 0x2000, uint64(i%5/4))
	}
	trailingLoads := append([]trace.Record{slabStore(0x2000, 8)}, loadsOnly...)

	storesOnly := make([]trace.Record, 100)
	for i := range storesOnly {
		storesOnly[i] = slabStore(0x2000+uint64(i), uint8(1+i%8))
	}

	cases := []struct {
		name string
		recs []trace.Record
	}{
		{"empty", nil},
		{"stores only", storesOnly},
		{"long load run", longRun},
		{"trailing stores", trailing},
		{"loads only", loadsOnly},
		{"loads after the last store", trailingLoads},
		{"mixed", mixedTrace(4096).Expand()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkSlabMatchesRecordBatch(t, tc.recs) })
	}
}

// TestAnnotateSlabAllocs pins the slab walk the suite runs, with the
// caller's load-order states, at O(1) allocations: the unit's fixed tables
// and nothing per load, the same count whether the slab holds thousands of
// loads or hundreds of thousands.
func TestAnnotateSlabAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	allocs := func(s trace.MemOps) float64 {
		states := make([]trace.PredState, s.Len())
		return testing.AllocsPerRun(5, func() {
			if _, err := AnnotateSlab(s, Simple, nil, states); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(mixedTrace(1 << 12).Mem())
	big := allocs(mixedTrace(1 << 18).Mem())
	t.Logf("slab walk: %v allocs", big)
	if big != small {
		t.Fatalf("slab walk: %v allocs at 64x the loads vs %v, want the same", big, small)
	}
	if big > 32 {
		t.Fatalf("slab walk allocates %v times, want a small constant", big)
	}
}

// BenchmarkAnnotateSlab measures the slab walk under Simple (32-entry CVU)
// and Constant (128-entry CVU): the gap is the CVU work the larger CAM adds.
// Its record-stream baseline is BenchmarkAnnotatorRecordBatch.
func BenchmarkAnnotateSlab(b *testing.B) {
	tr := mixedTrace(1 << 16)
	s := tr.Mem()
	states := make([]trace.PredState, s.Len())
	for _, cfg := range []Config{Simple, Constant} {
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AnnotateSlab(s, cfg, nil, states); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(tr.Len()))
		})
	}
}
