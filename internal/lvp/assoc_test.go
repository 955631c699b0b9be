package lvp

// Property and table-driven tests of the tagged / set-associative LVPT
// organisations: tag matches keep aliases apart (where the untagged table
// silently serves foreign values), victims leave in exact LRU order, bad
// geometry panics at construction, and the hot path stays allocation-free.

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"lvp/internal/isa"
	"lvp/internal/locality"
)

// pcForLine returns the pc whose word-aligned line is n — the inverse of
// the normalisation every table applies.
func pcForLine(n uint64) uint64 { return n * isa.InstBytes }

// TestTaggedDetectsAliasUntaggedServes is the head-to-head the counters
// exist for: two loads sharing a 16-entry slot. The untagged table serves
// one load the other's value (undetected interference); the tagged table
// refuses (TagMisses), and re-tagging the slot is a counted AliasEvict.
func TestTaggedDetectsAliasUntaggedServes(t *testing.T) {
	pcA := pcForLine(3)
	pcB := pcForLine(3 + 16) // same index, different tag

	untagged := NewLVPT(16, 1)
	untagged.Update(pcA, 111)
	if v, ok := untagged.Predict(pcB); !ok || v != 111 {
		t.Fatalf("untagged Predict(B) = (%d, %v), want the foreign value (111, true)", v, ok)
	}

	tagged := NewTaggedLVPT(16, 1, 0)
	tagged.Update(pcA, 111)
	if v, ok := tagged.Predict(pcB); ok {
		t.Fatalf("tagged Predict(B) = (%d, true), want a declined tag miss", v)
	}
	if st := tagged.Stats(); st.TagMisses != 1 {
		t.Fatalf("TagMisses = %d, want 1", st.TagMisses)
	}

	// B takes the slot: a counted alias eviction; now A is the tag miss.
	tagged.Update(pcB, 222)
	if st := tagged.Stats(); st.AliasEvicts != 1 {
		t.Fatalf("AliasEvicts = %d, want 1", st.AliasEvicts)
	}
	if v, ok := tagged.Predict(pcB); !ok || v != 222 {
		t.Fatalf("tagged Predict(B) after re-tag = (%d, %v), want (222, true)", v, ok)
	}
	if _, ok := tagged.Predict(pcA); ok {
		t.Fatal("tagged Predict(A) after re-tag must decline")
	}
}

// TestAssocKeepsAliasesApart: with enough ways, loads that collide on a
// set coexist — every prediction is alias-free under tag match, and no
// interference is counted.
func TestAssocKeepsAliasesApart(t *testing.T) {
	tab := NewAssocLVPT(16, 4, 1, 0)                                         // 4 sets × 4 ways
	pcs := []uint64{pcForLine(1), pcForLine(5), pcForLine(9), pcForLine(13)} // all set 1
	for i, pc := range pcs {
		tab.Update(pc, uint64(100+i))
	}
	for i, pc := range pcs {
		if v, ok := tab.Predict(pc); !ok || v != uint64(100+i) {
			t.Fatalf("way %d: Predict = (%d, %v), want (%d, true)", i, v, ok, 100+i)
		}
	}
	if st := tab.Stats(); st.TagMisses != 0 || st.AliasEvicts != 0 {
		t.Fatalf("co-resident aliases counted interference: %+v", st)
	}
}

// TestAssocLRUVictimOrder pins the victim sequence of a full set: invalid
// ways fill first in way order, then strictly least-recently-updated.
func TestAssocLRUVictimOrder(t *testing.T) {
	tab := NewAssocLVPT(8, 2, 1, 0)                                        // 4 sets × 2 ways
	a, b, c, d := pcForLine(2), pcForLine(6), pcForLine(10), pcForLine(14) // all set 2

	tab.Update(a, 1)
	tab.Update(b, 2)
	tab.Update(a, 1) // refresh A's recency (value unchanged)
	tab.Update(c, 3) // full set: victim must be B, the LRU way
	if _, ok := tab.Predict(b); ok {
		t.Fatal("B should have been the LRU victim")
	}
	for _, probe := range []struct {
		pc   uint64
		want uint64
	}{{a, 1}, {c, 3}} {
		if v, ok := tab.Predict(probe.pc); !ok || v != probe.want {
			t.Fatalf("Predict(%#x) = (%d, %v), want (%d, true)", probe.pc, v, ok, probe.want)
		}
	}

	// Next insertion evicts A (C is younger).
	tab.Update(d, 4)
	if _, ok := tab.Predict(a); ok {
		t.Fatal("A should have been the second LRU victim")
	}
	if v, ok := tab.Predict(d); !ok || v != 4 {
		t.Fatalf("Predict(D) = (%d, %v), want (4, true)", v, ok)
	}
	if st := tab.Stats(); st.AliasEvicts != 2 {
		t.Fatalf("AliasEvicts = %d, want 2 (both victims were live)", st.AliasEvicts)
	}
}

// TestAssocPredictIsPureRead pins that the prediction path never perturbs
// recency: only Update touches the LRU stamps, so re-querying cannot
// change a future victim.
func TestAssocPredictIsPureRead(t *testing.T) {
	tab := NewAssocLVPT(8, 2, 1, 0)
	a, b, c := pcForLine(0), pcForLine(4), pcForLine(8) // all set 0
	tab.Update(a, 1)
	tab.Update(b, 2)
	for i := 0; i < 10; i++ {
		tab.Predict(a) // if reads refreshed recency, A would survive
	}
	tab.Update(c, 3)
	if _, ok := tab.Predict(a); ok {
		t.Fatal("A survived eviction: Predict must not refresh LRU recency")
	}
	if v, ok := tab.Predict(b); !ok || v != 2 {
		t.Fatalf("Predict(B) = (%d, %v), want (2, true)", v, ok)
	}
}

// TestAssocAliasFreeProperty is the randomized guarantee the tags buy:
// with exact tags (the pc domain fits in setBits+tagBits), whenever the
// table speaks, the value is the MRU value of that exact pc — never a
// foreign entry's. The untagged table cannot make this promise.
func TestAssocAliasFreeProperty(t *testing.T) {
	steps := 20_000
	if testing.Short() {
		steps = 4_000
	}
	for _, ways := range []int{1, 2, 4} {
		rnd := rand.New(rand.NewSource(int64(41 + ways)))
		tab := NewAssocLVPT(64, ways, 1, 8) // lines < 2^(setBits+8): tags exact
		shadow := make(map[uint64]uint64)   // pc -> last updated value
		for step := 0; step < steps; step++ {
			pc := pcForLine(uint64(rnd.Intn(1024)))
			if rnd.Intn(2) == 0 {
				v := rnd.Uint64()
				tab.Update(pc, v)
				shadow[pc] = v
				continue
			}
			if v, ok := tab.Predict(pc); ok && v != shadow[pc] {
				t.Fatalf("%d-way step %d: Predict(%#x) spoke %d, but this pc last stored %d (foreign value served)",
					ways, step, pc, v, shadow[pc])
			}
		}
	}
}

// TestAssocDepthHistoryMRU pins the deep-history semantics against the
// untagged table's: MRU insertion, Contains over the live prefix, value
// re-touch reorders without a visible change, and full-history
// displacement counts a Replacement.
func TestAssocDepthHistoryMRU(t *testing.T) {
	tab := NewTaggedLVPT(16, 3, 0)
	pc := pcForLine(5)
	for _, v := range []uint64{1, 2, 3} {
		if !tab.Update(pc, v) {
			t.Fatalf("Update(%d) on a non-full history must report a change", v)
		}
	}
	if !tab.Update(pc, 4) { // displaces 1
		t.Fatal("displacing Update must report a change")
	}
	if st := tab.Stats(); st.Replacements != 1 {
		t.Fatalf("Replacements = %d, want 1", st.Replacements)
	}
	if tab.Contains(pc, 1) {
		t.Fatal("displaced value still reported present")
	}
	for _, v := range []uint64{2, 3, 4} {
		if !tab.Contains(pc, v) {
			t.Fatalf("Contains(%d) = false, want true", v)
		}
	}
	if v, _ := tab.Predict(pc); v != 4 {
		t.Fatalf("MRU = %d, want 4", v)
	}
	// Re-touching a present value reorders the history but changes nothing
	// visible — the CVU invalidation discipline depends on this.
	if tab.Update(pc, 2) {
		t.Fatal("re-touching a present value must not report a change")
	}
	if v, _ := tab.Predict(pc); v != 2 {
		t.Fatalf("MRU after re-touch = %d, want 2", v)
	}
}

// TestAssocMatchesUntaggedWithoutAliasing: when the pc domain is smaller
// than the set count no load ever aliases, and all three organisations
// must behave identically (and count zero interference).
func TestAssocMatchesUntaggedWithoutAliasing(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	untagged := NewLVPT(64, 2)
	tagged := NewTaggedLVPT(64, 2, 8)
	assoc := NewAssocLVPT(64, 4, 2, 8) // 16 sets
	for step := 0; step < 10_000; step++ {
		pc := pcForLine(uint64(rnd.Intn(16))) // < sets of every table
		if rnd.Intn(2) == 0 {
			v := uint64(rnd.Intn(5))
			cu := untagged.Update(pc, v)
			ct := tagged.Update(pc, v)
			ca := assoc.Update(pc, v)
			if cu != ct || cu != ca {
				t.Fatalf("step %d: Update changed flags diverge: untagged %v tagged %v assoc %v",
					step, cu, ct, ca)
			}
			continue
		}
		uv, uok := untagged.Predict(pc)
		tv, tok := tagged.Predict(pc)
		av, aok := assoc.Predict(pc)
		if uv != tv || uok != tok || uv != av || uok != aok {
			t.Fatalf("step %d: Predict(%#x) diverges: untagged (%d,%v) tagged (%d,%v) assoc (%d,%v)",
				step, pc, uv, uok, tv, tok, av, aok)
		}
	}
	for name, st := range map[string]LVPTStats{"tagged": tagged.Stats(), "assoc": assoc.Stats()} {
		if st.TagMisses != 0 || st.AliasEvicts != 0 {
			t.Fatalf("%s counted interference without aliasing: %+v", name, st)
		}
	}
}

// TestAssocBadGeometryPanics sweeps the constructor's validation.
func TestAssocBadGeometryPanics(t *testing.T) {
	cases := []struct {
		name                          string
		entries, ways, depth, tagBits int
	}{
		{"zero entries", 0, 1, 1, 8},
		{"non-pow2 entries", 24, 1, 1, 8},
		{"negative entries", -16, 1, 1, 8},
		{"zero ways", 16, 0, 1, 8},
		{"non-pow2 ways", 16, 3, 1, 8},
		{"ways exceed entries", 16, 32, 1, 8},
		{"tag too wide", 16, 1, 1, 33},
		{"negative tag", 16, 1, 1, -4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewAssocLVPT(%d, %d, %d, %d) did not panic",
						tc.entries, tc.ways, tc.depth, tc.tagBits)
				}
			}()
			NewAssocLVPT(tc.entries, tc.ways, tc.depth, tc.tagBits)
		})
	}
}

// TestAssocWays pins the constructor's associativity reporting and the
// tagged convenience wrapper.
func TestAssocWays(t *testing.T) {
	if w := NewTaggedLVPT(16, 1, 0).Ways(); w != 1 {
		t.Fatalf("tagged Ways = %d, want 1", w)
	}
	if w := NewAssocLVPT(16, 4, 1, 0).Ways(); w != 4 {
		t.Fatalf("assoc Ways = %d, want 4", w)
	}
}

// TestAssocOpsAllocFree pins zero allocations on the full operation mix.
func TestAssocOpsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	tab := NewAssocLVPT(32, 4, 3, 8)
	rnd := rand.New(rand.NewSource(5))
	work := func() {
		pc := pcForLine(uint64(rnd.Intn(256)))
		switch rnd.Intn(4) {
		case 0:
			tab.Predict(pc)
		case 1:
			tab.Contains(pc, uint64(rnd.Intn(8)))
		default:
			tab.Update(pc, uint64(rnd.Intn(8)))
		}
	}
	for i := 0; i < 10_000; i++ {
		work()
	}
	if avg := testing.AllocsPerRun(10_000, work); avg != 0 {
		t.Fatalf("assoc LVPT ops allocate %v allocs/op, want 0", avg)
	}
}

// TestTableGeometryOverflow checks each table constructor whose size is a
// product refuses a geometry that overflows int, panicking with its own
// message before it allocates, instead of building a wrapped (often empty)
// table whose first lookup indexes out of range. Every geometry here wraps
// or exceeds the largest allocation Go allows, so none allocates memory.
func TestTableGeometryOverflow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func()
	}{
		{"two-level VHT entries", func() { NewTwoLevel(TwoLevelConfig{VHTEntries: 1 << 62, HistLen: 4, VPTEntries: 1}) }},
		{"two-level history length", func() { NewTwoLevel(TwoLevelConfig{VHTEntries: 2, HistLen: math.MaxInt, VPTEntries: 1}) }},
		{"assoc LVPT entries", func() { NewAssocLVPT(1<<62, 1, 4, 8) }},
		{"assoc LVPT depth", func() { NewAssocLVPT(16, 4, 1<<60, 8) }},
		{"history table entries", func() { locality.NewHistoryTable(1<<62, 4) }},
		{"CVU capacity", func() { NewCVU(1 << 62) }},
		{"CVU capacity MaxInt", func() { NewCVU(math.MaxInt) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "overflows") {
					t.Errorf("panic %v, want the constructor's overflow message", r)
				}
			}()
			tc.build()
		})
	}
}
