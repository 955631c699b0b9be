package axp21164

import (
	"testing"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

// loadAddMix builds n records alternating a fixed-address load with
// independent adds, so the batch simulation loop's load path runs hot while
// the cache hierarchy's footprint (one line) stays constant across sizes.
func loadAddMix(n int) *trace.Trace {
	recs := make([]trace.Record, n)
	for i := range recs {
		if i%4 == 0 {
			recs[i] = trace.Record{Op: isa.LD, Rd: 5, Ra: 1,
				Addr: 0x100000, Value: 7, Size: 8, Class: isa.LoadIntData}
		} else {
			recs[i] = trace.Record{Op: isa.ADD, Rd: isa.Reg(6 + i%4), Ra: 1, Rb: 2}
		}
	}
	return mkTrace(recs)
}

// TestSimulateAllocsDoNotScale gates the batch simulation loop at zero
// allocations per record: a run allocates the machine, stats and hierarchy
// once, so quadrupling the record count must not move the per-run
// allocation count. A per-record (or per-batch) allocation in the hot loop
// shows up here as thousands of extra allocs at the larger size.
func TestSimulateAllocsDoNotScale(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	measure := func(tr *trace.Trace) float64 {
		return testing.AllocsPerRun(5, func() {
			simTrace(tr, nil, Config21164(), "")
		})
	}
	small := measure(loadAddMix(4096))
	big := measure(loadAddMix(16384))
	if big > small+8 {
		t.Fatalf("allocations scale with record count: %v allocs @4k records, %v @16k", small, big)
	}
}
