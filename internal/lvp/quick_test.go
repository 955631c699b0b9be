package lvp

// Property-based tests (testing/quick) on the LVP unit's core data
// structures and on the annotator's global invariants.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

func TestLVPTUpdateThenPredictProperty(t *testing.T) {
	// Depth-1 property: immediately after Update(pc, v), Predict(pc)
	// returns v.
	tab := NewLVPT(256, 1)
	f := func(pc, v uint64) bool {
		tab.Update(pc, v)
		got, ok := tab.Predict(pc)
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLVPTContainsAfterUpdateProperty(t *testing.T) {
	tab := NewLVPT(256, 8)
	f := func(pc, v uint64) bool {
		tab.Update(pc, v)
		return tab.Contains(pc, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCVUCapacityInvariant(t *testing.T) {
	const capacity = 16
	c := NewCVU(capacity)
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		switch rnd.Intn(4) {
		case 0, 1:
			c.Insert(uint64(rnd.Intn(256)), rnd.Intn(64))
		case 2:
			c.InvalidateAddr(uint64(rnd.Intn(256)), 1+rnd.Intn(8))
		case 3:
			c.Lookup(uint64(rnd.Intn(256)), rnd.Intn(64))
		}
		if c.Len() > capacity {
			t.Fatalf("CVU overflow: %d > %d", c.Len(), capacity)
		}
	}
}

func TestCVUInsertLookupProperty(t *testing.T) {
	f := func(addr uint64, idx uint16) bool {
		c := NewCVU(8)
		c.Insert(addr, int(idx))
		return c.Lookup(addr, int(idx))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCVUStoreInvalidatesExactlyOverlaps(t *testing.T) {
	f := func(loadAddr, storeAddr uint16, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		c := NewCVU(8)
		c.Insert(uint64(loadAddr), 1)
		c.InvalidateAddr(uint64(storeAddr), size)
		// Entry covers [loadAddr, loadAddr+8); store covers
		// [storeAddr, storeAddr+size).
		overlap := uint64(loadAddr)+8 > uint64(storeAddr) &&
			uint64(storeAddr)+uint64(size) > uint64(loadAddr)
		return c.Lookup(uint64(loadAddr), 1) == !overlap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLCTCounterBounded(t *testing.T) {
	for _, bits := range []int{1, 2, 3} {
		l := NewLCT(64, bits)
		rnd := rand.New(rand.NewSource(int64(bits)))
		maxVal := uint8(1<<bits - 1)
		for i := 0; i < 2000; i++ {
			pc := uint64(rnd.Intn(256)) * isa.InstBytes
			l.Update(pc, rnd.Intn(2) == 0)
			if c := l.Counter(pc); c > maxVal {
				t.Fatalf("%d-bit counter out of range: %d", bits, c)
			}
		}
	}
}

// randomTrace builds a structurally valid, *memory-consistent* random
// trace: loads return the last value stored to their (8-byte aligned)
// address, so the CVU's coherence guarantee is actually testable. (A
// generator that hands different values to repeated loads of an unwritten
// address describes a machine that cannot exist.)
func randomTrace(seed int64, n int) *trace.Trace {
	rnd := rand.New(rand.NewSource(seed))
	var recs []trace.Record
	mem := map[uint64]uint64{}
	ops := []isa.Op{isa.ADD, isa.LD, isa.LD, isa.SD, isa.BEQ, isa.FLD, isa.FSD}
	for i := 0; i < n; i++ {
		op := ops[rnd.Intn(len(ops))]
		r := trace.Record{
			PC: uint64(0x1000 + 4*rnd.Intn(64)), Op: op,
			Rd: isa.Reg(rnd.Intn(32)), Ra: isa.Reg(rnd.Intn(32)), Rb: isa.Reg(rnd.Intn(32)),
		}
		if isa.IsLoad(op) || isa.IsStore(op) {
			r.Addr = uint64(0x10000 + 8*rnd.Intn(128))
			r.Size = 8
			if isa.IsStore(op) {
				v := uint64(rnd.Intn(16))
				mem[r.Addr] = v
				r.Value = v
			} else {
				r.Value = mem[r.Addr] // zero if never written
				r.Class = isa.LoadClass(1 + rnd.Intn(4))
			}
		}
		recs = append(recs, r)
	}
	return trace.FromRecords("rnd", "axp", recs)
}

func TestAnnotateInvariantsOnRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tr := randomTrace(seed, 2000)
		for _, cfg := range Configs {
			ann, st, err := Annotate(tr, cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %s: %v", seed, cfg.Name, err)
			}
			loads := 0
			for i, r := range tr.Expand() {
				if r.IsLoad() {
					loads++
					continue
				}
				if ann[i] != trace.PredNone {
					t.Fatalf("seed %d: non-load %d annotated %v", seed, i, ann[i])
				}
			}
			if st.Loads != loads {
				t.Fatalf("seed %d cfg %s: loads %d != %d", seed, cfg.Name, st.Loads, loads)
			}
			sum := 0
			for _, c := range st.States {
				sum += c
			}
			if sum != loads {
				t.Fatalf("seed %d cfg %s: state counts sum %d != loads %d",
					seed, cfg.Name, sum, loads)
			}
			// The invalidate-on-update discipline guarantees no CVU
			// coherence violations even under adversarial aliasing.
			if st.CoherenceViolations != 0 {
				t.Fatalf("seed %d cfg %s: %d coherence violations",
					seed, cfg.Name, st.CoherenceViolations)
			}
			// Table-3 style accounting must partition all loads.
			if st.PredictableTotal+st.UnpredictableTotal != loads && !cfg.Perfect {
				t.Fatalf("seed %d cfg %s: predictable+unpredictable != loads", seed, cfg.Name)
			}
		}
	}
}

func TestAnnotateDeterministic(t *testing.T) {
	tr := randomTrace(99, 3000)
	a1, s1, err := Annotate(tr, Simple)
	if err != nil {
		t.Fatal(err)
	}
	a2, s2, err := Annotate(tr, Simple)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("annotation differs at %d", i)
		}
	}
}
