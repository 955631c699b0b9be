package lvp

import (
	"reflect"
	"testing"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

// TestLoadBatchMatchesLoad pins Unit.LoadBatch — including the SoA direct
// path the Simple/Constant configurations take — against sequential Load
// calls on a twin unit: same states, and bit-identical Stats (every table
// counter, class transition and CVU event). Runs of loads are split at
// arbitrary boundaries and interleaved with stores so batch boundaries and
// CVU invalidations both land mid-stream. The leading records exercise the
// one coincidence the direct path must get right: a cold LVPT slot
// physically holds 0, so a first-touch load of value 0 "matches" the table
// while the entry is still cold — Load still grows the entry and
// invalidates the CVU index, and the batch must too.
func TestLoadBatchMatchesLoad(t *testing.T) {
	cold := []trace.Record{
		{PC: 0x9000, Op: isa.LD, Rd: 3, Addr: 0x8000, Value: 0, Size: 8, Class: isa.LoadIntData},
		{PC: 0x9000, Op: isa.LD, Rd: 3, Addr: 0x8000, Value: 0, Size: 8, Class: isa.LoadIntData},
		{PC: 0x9000, Op: isa.LD, Rd: 3, Addr: 0x8000, Value: 7, Size: 8, Class: isa.LoadIntData},
	}
	recs := append(cold, mixedTrace(4096).Expand()...)

	cfgs := append(append([]Config{}, Configs...), AblationConfigs...)
	for _, cfg := range cfgs {
		t.Run(cfg.Name, func(t *testing.T) {
			seq, err := NewUnit(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bat, err := NewUnit(cfg)
			if err != nil {
				t.Fatal(err)
			}

			var pcs, addrs, vals []uint64
			var idxs []int
			wantStates := make([]trace.PredState, len(recs))
			gotStates := make([]trace.PredState, len(recs))
			scratch := make([]trace.PredState, 0, 16)
			flush := func() {
				if len(pcs) == 0 {
					return
				}
				scratch = scratch[:len(pcs)]
				bat.LoadBatch(pcs, addrs, vals, scratch)
				for k, i := range idxs {
					gotStates[i] = scratch[k]
				}
				pcs, addrs, vals, idxs = pcs[:0], addrs[:0], vals[:0], idxs[:0]
			}
			for i := range recs {
				r := &recs[i]
				switch {
				case r.IsLoad():
					wantStates[i] = seq.Load(r.PC, r.Addr, r.Value)
					pcs = append(pcs, r.PC)
					addrs = append(addrs, r.Addr)
					vals = append(vals, r.Value)
					idxs = append(idxs, i)
					// Split runs at a boundary no record pattern
					// aligns with, so batches start and end
					// mid-run, not only at stores.
					if len(pcs) == 7 {
						flush()
					}
				case r.IsStore():
					flush()
					seq.Store(r.Addr, int(r.Size))
					bat.Store(r.Addr, int(r.Size))
				}
			}
			flush()

			for i := range recs {
				if gotStates[i] != wantStates[i] {
					t.Fatalf("record %d (pc %#x): batch %v, sequential %v",
						i, recs[i].PC, gotStates[i], wantStates[i])
				}
			}
			if s1, s2 := seq.Stats(), bat.Stats(); !reflect.DeepEqual(s1, s2) {
				t.Fatalf("stats diverged:\n sequential %+v\n batch      %+v", s1, s2)
			}
		})
	}
}

// TestLoadBatchAllocFree pins the direct batch path at zero allocations per
// call. The workload's values never repeat, so the LCT never promotes past
// NoPredict and the CVU stays empty — the regime where every allocation
// would be the batch path's own fault rather than legitimate CVU growth.
func TestLoadBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	u, err := NewUnit(Simple)
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	pcs := make([]uint64, n)
	addrs := make([]uint64, n)
	vals := make([]uint64, n)
	states := make([]trace.PredState, n)
	for i := range pcs {
		pcs[i] = 0x1000 + 8*uint64(i)
		addrs[i] = 0x2000 + 8*uint64(i)
	}
	var tick uint64
	fill := func() {
		for i := range vals {
			tick++
			vals[i] = tick<<16 | uint64(i)
		}
	}
	for i := 0; i < 8; i++ {
		fill()
		u.LoadBatch(pcs, addrs, vals, states)
	}
	avg := testing.AllocsPerRun(200, func() {
		fill()
		u.LoadBatch(pcs, addrs, vals, states)
	})
	if avg != 0 {
		t.Fatalf("Unit.LoadBatch allocates %v allocs/call, want 0", avg)
	}
}
