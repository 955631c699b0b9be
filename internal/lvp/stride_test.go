package lvp

// Edge-case tests of the two-delta stride predictor — confirmation
// handshakes the basic lvp_test coverage skips, wraparound arithmetic at
// the uint64 boundary — and the predictor-zoo registry contract.

import (
	"testing"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

// TestStrideColdDeclines pins the confidence contract: an untrained entry
// declines Lookup with value zero.
func TestStrideColdDeclines(t *testing.T) {
	p := NewStride(16)
	if v, ok := p.Lookup(0x1000); ok || v != 0 {
		t.Fatalf("cold stride entry Lookup = (%d, %v), want (0, false)", v, ok)
	}
	// After one update the entry speaks (stride still 0: last value).
	p.Update(0x1000, 77)
	if v, ok := p.Lookup(0x1000); !ok || v != 77 {
		t.Fatalf("after one update Lookup = (%d, %v), want (77, true)", v, ok)
	}
}

// TestStrideTwoDeltaConfirmation walks the confirmation state machine edge
// by edge: a new delta must appear twice in a row to replace the stride,
// and re-confirming the old stride cancels a pending candidate.
func TestStrideTwoDeltaConfirmation(t *testing.T) {
	p := NewStride(16)
	pc := uint64(0x1000)
	// Train stride 8: 0, 8 (delta 8 pending), 16 (confirmed).
	for _, v := range []uint64{0, 8, 16} {
		p.Update(pc, v)
	}
	if v, _ := p.Lookup(pc); v != 24 {
		t.Fatalf("trained predict = %d, want 24", v)
	}

	// A single foreign delta leaves the stride intact...
	p.Update(pc, 100) // delta 84: pending only
	if v, _ := p.Lookup(pc); v != 108 {
		t.Fatalf("after blip predict = %d, want 108 (stride 8 kept)", v)
	}
	// ...and a matching old-stride delta cancels the pending candidate:
	p.Update(pc, 108) // delta 8 == stride: pending cleared
	p.Update(pc, 192) // delta 84 again — but NOT twice in a row
	if v, _ := p.Lookup(pc); v != 200 {
		t.Fatalf("after separated deltas predict = %d, want 200 (stride still 8)", v)
	}

	// Two consecutive foreign deltas do retrain.
	p.Update(pc, 196) // delta 4: pending
	p.Update(pc, 200) // delta 4 again: stride becomes 4
	if v, _ := p.Lookup(pc); v != 204 {
		t.Fatalf("after two-delta retrain predict = %d, want 204 (stride 4)", v)
	}
}

// TestStrideAlternatingDeltasNeverConfirm: a delta sequence that never
// repeats back-to-back cannot displace the trained stride — the two-delta
// rule's whole point.
func TestStrideAlternatingDeltasNeverConfirm(t *testing.T) {
	p := NewStride(16)
	pc := uint64(0x2000)
	// Deltas alternate 8, 2, 8, 2, ... — stride stays 0 (the initial
	// value), so the predictor degenerates to last-value.
	last := uint64(0)
	p.Update(pc, last)
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			last += 8
		} else {
			last += 2
		}
		p.Update(pc, last)
		if v, _ := p.Lookup(pc); v != last {
			t.Fatalf("step %d: predict = %d, want %d (stride must stay 0)", i, v, last)
		}
	}
}

// TestStrideWraparound pins the modular arithmetic: strides carry across
// the uint64 boundary in both directions.
func TestStrideWraparound(t *testing.T) {
	const max = ^uint64(0)
	t.Run("ascending across max", func(t *testing.T) {
		p := NewStride(16)
		pc := uint64(0x1000)
		p.Update(pc, max-12)
		p.Update(pc, max-4) // delta 8: pending
		p.Update(pc, 3)     // delta (max-4)+8 = 3: wraps, confirms stride 8
		if v, ok := p.Lookup(pc); !ok || v != 11 {
			t.Fatalf("wrapped predict = (%d, %v), want (11, true)", v, ok)
		}
	})
	t.Run("descending across zero", func(t *testing.T) {
		p := NewStride(16)
		pc := uint64(0x1000)
		// Negative stride is the two's-complement delta max-7 (== -8).
		p.Update(pc, 12)
		p.Update(pc, 4)     // delta -8: pending
		p.Update(pc, max-3) // 4 - 8 wraps: stride -8 confirmed
		if v, ok := p.Lookup(pc); !ok || v != max-11 {
			t.Fatalf("descending wrapped predict = (%d, %v), want (%d, true)", v, ok, max-11)
		}
	})
}

// TestStrideBadEntriesPanics pins the power-of-two validation.
func TestStrideBadEntriesPanics(t *testing.T) {
	for _, entries := range []int{0, -4, 3, 24} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStride(%d) did not panic", entries)
				}
			}()
			NewStride(entries)
		}()
	}
}

// TestFamilyRegistry pins the zoo registry contract the sweep machinery
// depends on: unique resolvable names, working constructors (stride and
// two-level included), and a useful error for unknown names.
func TestFamilyRegistry(t *testing.T) {
	fams := Families()
	if len(fams) == 0 {
		t.Fatal("empty family registry")
	}
	seen := map[string]bool{}
	for _, f := range fams {
		if f.Name == "" || f.Desc == "" || f.New == nil {
			t.Fatalf("malformed family %+v", f)
		}
		if seen[f.Name] {
			t.Fatalf("duplicate family name %q", f.Name)
		}
		seen[f.Name] = true
		got, err := FamilyByName(f.Name)
		if err != nil || got.Name != f.Name {
			t.Fatalf("FamilyByName(%q) = (%+v, %v)", f.Name, got, err)
		}
		p, err := NewFamilyPredictor(f.Name)
		if err != nil || p == nil {
			t.Fatalf("NewFamilyPredictor(%q) = (%v, %v)", f.Name, p, err)
		}
		// Two builds must be independent instances (fresh state per cell).
		if q, _ := NewFamilyPredictor(f.Name); q == p {
			t.Fatalf("family %q returns a shared instance", f.Name)
		}
	}
	for _, want := range []string{"last-value", "stride", "two-level", "lv-tagged-16", "lv-4way-16"} {
		if !seen[want] {
			t.Errorf("family %q missing from the registry", want)
		}
	}
	if names := FamilyNames(); len(names) != len(fams) {
		t.Fatalf("FamilyNames has %d entries, registry %d", len(names), len(fams))
	}
	if _, err := FamilyByName("nope"); err == nil {
		t.Fatal("unknown family did not error")
	}
	if _, err := NewFamilyPredictor("nope"); err == nil {
		t.Fatal("NewFamilyPredictor on unknown family did not error")
	}
}

// strideTrace builds a trace of one load walking an arithmetic sequence —
// fully stride-predictable after warm-up.
func strideTrace(n int, pc, start, stride uint64) *trace.Trace {
	var recs []trace.Record
	for i := 0; i < n; i++ {
		recs = append(recs, trace.Record{
			PC: pc, Op: isa.LD, Addr: 0x8000, Value: start + uint64(i)*stride,
			Size: 8, Class: isa.LoadIntData,
		})
	}
	return trace.FromRecords("", "", recs)
}

// TestMeasureZooAccounting pins the coverage/accuracy split MeasureZoo
// builds on: predictors only accrue attempts when they speak.
func TestMeasureZooAccounting(t *testing.T) {
	tr := strideTrace(100, 0x1000, 1000, 8)

	// Stride declines only the first, cold load, then locks the sequence
	// after the two-delta warm-up.
	m := MeasureZoo(tr, NewStride(16))
	if m.Loads != 100 || m.Attempts != 99 {
		t.Fatalf("stride loads/attempts = %d/%d, want 100/99", m.Loads, m.Attempts)
	}
	if m.Hits != 97 { // the two warm-up deltas miss
		t.Fatalf("stride hits = %d, want 97", m.Hits)
	}
	if m.Accuracy() <= m.Coverage() {
		t.Fatalf("accuracy %f must exceed coverage %f when predictions were declined",
			m.Accuracy(), m.Coverage())
	}

	// TwoValue always speaks, so attempts == loads.
	m = MeasureZoo(tr, NewTwoValue(16))
	if m.Attempts != m.Loads {
		t.Fatalf("two-value attempts = %d, want loads = %d", m.Attempts, m.Loads)
	}

	// Interference counters flow through for table-backed families only.
	m = MeasureZoo(tr, NewTableValue("t", NewTaggedLVPT(16, 1, 0)))
	if m.TagMisses != 0 || m.AliasEvicts != 0 {
		t.Fatalf("single-pc trace counted interference: %+v", m)
	}
	if m.Loads != 100 || m.Attempts != 99 || m.Hits != 0 {
		t.Fatalf("tagged last-value on a stride = %+v, want 100/99/0", m)
	}

	// Empty trace: both ratios are defined as zero.
	z := MeasureZoo(trace.FromRecords("", "", nil), NewStride(16))
	if z.Coverage() != 0 || z.Accuracy() != 0 {
		t.Fatalf("empty-trace ratios = %f/%f, want 0/0", z.Coverage(), z.Accuracy())
	}
}

// BenchmarkZooSweep measures every registered family over one trace's load
// lanes, the path exp.ZooSweep takes.
func BenchmarkZooSweep(b *testing.B) {
	tr := mixedTrace(1 << 16)
	for i := 0; i < b.N; i++ {
		for _, f := range Families() {
			MeasureZoo(tr, f.New())
		}
	}
	b.SetBytes(int64(tr.Len()))
}
