package lvp

import (
	"testing"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

func TestPathLVPDisambiguatesByPath(t *testing.T) {
	// One static load whose value depends on the direction of the
	// preceding branch: plain last-value gets ~50%, 1 history bit nails
	// it (the paper §7 refinement).
	var recs []trace.Record
	for i := 0; i < 400; i++ {
		taken := i%2 == 0
		v := uint64(111)
		if taken {
			v = 222
		}
		recs = append(recs,
			trace.Record{PC: 0x1000, Op: isa.BEQ, Taken: taken, Targ: 0x2000},
			trace.Record{PC: 0x1004, Op: isa.LD, Addr: 0x8000, Value: v, Size: 8, Class: isa.LoadIntData},
		)
	}
	tr := trace.FromRecords("", "", recs)
	rs := MeasurePathAccuracy(tr, 1024, 0, 2)
	plain, path := rs[0], rs[1]
	if plain.Percent() > 10 {
		t.Errorf("plain last-value should fail on alternating values, got %.1f%%", plain.Percent())
	}
	if path.Percent() < 90 {
		t.Errorf("path-indexed LVPT should disambiguate, got %.1f%%", path.Percent())
	}
}

func TestPathLVPZeroBitsIsLastValue(t *testing.T) {
	p := NewPathLVP(64, 0)
	p.Branch(true) // must not perturb the index with 0 history bits
	p.Update(0x1000, 42)
	p.Branch(false)
	if got := p.Predict(0x1000); got != 42 {
		t.Errorf("ghr=0 predict = %d, want 42 (history must be masked out)", got)
	}
}

func TestPathLVPBadArgsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { NewPathLVP(1000, 2) },
		func() { NewPathLVP(1024, 64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
