package lvp

import (
	"reflect"
	"testing"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

// mixedTrace builds a deterministic trace exercising every annotator path:
// constant loads (CVU promotion and hits), alternating-value loads
// (mispredictions and LCT demotion), stores that invalidate CVU entries,
// and non-memory records that must pass through as PredNone.
func mixedTrace(n int) *trace.Trace {
	var recs []trace.Record
	for i := 0; i < n; i++ {
		pc := uint64(0x1000 + 4*(i%16))
		switch i % 8 {
		case 0, 1, 2:
			// Constant load: same pc/addr/value every time.
			recs = append(recs, trace.Record{
				PC: pc, Op: isa.LD, Rd: 3, Ra: 1, Imm: 8,
				Addr: 0x2000 + 8*uint64(i%3), Value: 0xabcd, Size: 8,
				Class: isa.LoadIntData,
			})
		case 3:
			// Alternating-value load: never predictable for long.
			recs = append(recs, trace.Record{
				PC: 0x1100, Op: isa.LD, Rd: 4, Ra: 1, Imm: 16,
				Addr: 0x3000, Value: uint64(i % 2), Size: 8,
				Class: isa.LoadDataAddr,
			})
		case 4:
			// Store over the constant loads' addresses: CVU invalidation.
			recs = append(recs, trace.Record{
				PC: pc, Op: isa.SD, Ra: 1, Rb: 3, Imm: 8,
				Addr: 0x2000 + 8*uint64(i%3), Value: 0xabcd, Size: 8,
			})
		default:
			recs = append(recs, trace.Record{
				PC: pc, Op: isa.ADD, Rd: 5, Ra: 3, Rb: 4, Value: uint64(i),
			})
		}
	}
	return trace.FromRecords("mixed", "ppc", recs)
}

// TestAnnotatorMatchesAnnotate pins the single-code-path contract of the
// streaming layer: feeding records through Unit.RecordBatch in small batches
// yields exactly the annotation and statistics of the whole-trace Annotate
// (the unit over the memory-op lanes, scattered), for every paper
// configuration.
func TestAnnotatorMatchesAnnotate(t *testing.T) {
	tr := mixedTrace(4096)
	for _, cfg := range Configs {
		t.Run(cfg.Name, func(t *testing.T) {
			wantAnn, wantStats, err := Annotate(tr, cfg)
			if err != nil {
				t.Fatalf("Annotate: %v", err)
			}

			u, err := NewUnit(cfg)
			if err != nil {
				t.Fatalf("NewUnit: %v", err)
			}
			recs := tr.Expand()
			gotAnn := make(trace.Annotation, len(recs))
			for i := 0; i < len(recs); i += 3 {
				j := min(i+3, len(recs))
				u.RecordBatch(recs[i:j], gotAnn[i:j])
			}
			if !reflect.DeepEqual(gotAnn, wantAnn) {
				t.Fatal("RecordBatch states differ from Annotate")
			}
			if !reflect.DeepEqual(u.Stats(), wantStats) {
				t.Fatalf("RecordBatch stats differ:\n got %+v\nwant %+v", u.Stats(), wantStats)
			}

		})
	}
}

// TestUnitLoadAllocFree is the LVP-unit allocation-regression gate: once
// the tables and the CVU backing array are warm, the per-load
// predict/classify/verify/update path must not allocate. This is what lets
// the fused streaming pipeline annotate arbitrarily long traces without GC
// pressure.
func TestUnitLoadAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, cfg := range []Config{Simple, Constant, Perfect} {
		t.Run(cfg.Name, func(t *testing.T) {
			u, err := NewUnit(cfg)
			if err != nil {
				t.Fatal(err)
			}
			step := func(i int) {
				if i%7 == 3 {
					u.Store(0x2000+8*uint64(i%4), 8)
					return
				}
				pc := uint64(0x1000 + 4*(i%8))
				u.Load(pc, 0x2000+8*uint64(i%4), 0xabcd)
			}
			// Warm up: drive the LCT to steady state and the CVU backing
			// array to its high-water occupancy.
			for i := 0; i < 50_000; i++ {
				step(i)
			}
			i := 0
			avg := testing.AllocsPerRun(10_000, func() {
				step(i)
				i++
			})
			if avg != 0 {
				t.Fatalf("Unit.Load/Store allocates %.4f objects/record after warm-up, want 0", avg)
			}
		})
	}
}
