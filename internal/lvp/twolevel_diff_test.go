package lvp

// Differential proof of the two-level VHT/VPT predictor. referenceTwoLevel
// is the obvious map-based model: per-PC histories and VPT slots live in
// maps, the signature hash is re-derived from its specification (the
// doc comment on TwoLevel.slot), and every decision — speak or decline,
// confirm, demote, or replace — is re-taken with auditable code. The
// randomized differential drives both implementations through identical
// operation sequences and demands full-state identity after every op:
// every return value, every stat counter, the exact trained VPT slot set
// (values and confidence — which pins replacement victims), and every VHT
// history.

import (
	"math/rand"
	"reflect"
	"testing"

	"lvp/internal/isa"
)

// refVPTSlot is one trained VPT slot of the reference model.
type refVPTSlot struct {
	val  uint64
	conf int
}

// referenceTwoLevel is the map-based reference model. Deliberately naive:
// histories as slices in a map, slots in a map, modulo instead of masks.
type referenceTwoLevel struct {
	cfg    TwoLevelConfig
	thresh int
	hist   map[int][]uint64 // VHT entry -> k values, MRU first; absent = zeros
	vpt    map[int]refVPTSlot
	stats  TwoLevelStats
}

func newReferenceTwoLevel(cfg TwoLevelConfig) *referenceTwoLevel {
	confMax := 1<<cfg.ConfBits - 1
	thresh := cfg.ConfThreshold
	if thresh > confMax {
		thresh = confMax
	}
	if thresh < 1 {
		thresh = 1
	}
	return &referenceTwoLevel{
		cfg:    cfg,
		thresh: thresh,
		hist:   make(map[int][]uint64),
		vpt:    make(map[int]refVPTSlot),
	}
}

func (r *referenceTwoLevel) vhtIndex(pc uint64) int {
	return int((pc / isa.InstBytes) % uint64(r.cfg.VHTEntries))
}

// history returns the entry's k values, materializing the all-zeros
// history a fresh table starts with.
func (r *referenceTwoLevel) history(pc uint64) []uint64 {
	if h, ok := r.hist[r.vhtIndex(pc)]; ok {
		return h
	}
	return make([]uint64, r.cfg.HistLen)
}

// slot re-derives the signature hash from its specification: starting from
// the word-aligned pc, fold each history value in MRU-first, diffusing with
// the Fibonacci multiplier and a shift-xor; reduce modulo the VPT size.
func (r *referenceTwoLevel) slot(pc uint64) int {
	h := pc / isa.InstBytes
	for _, v := range r.history(pc) {
		h = (h ^ v) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return int(h % uint64(r.cfg.VPTEntries))
}

func (r *referenceTwoLevel) Lookup(pc uint64) (uint64, bool) {
	r.stats.Lookups++
	s, ok := r.vpt[r.slot(pc)]
	if !ok || s.conf < r.thresh {
		return 0, false
	}
	r.stats.Predicted++
	return s.val, true
}

func (r *referenceTwoLevel) Update(pc, actual uint64) {
	r.stats.Updates++
	si := r.slot(pc)
	s, trained := r.vpt[si]
	confMax := 1<<r.cfg.ConfBits - 1
	switch {
	case trained && s.val == actual:
		r.stats.Confirms++
		if s.conf < confMax {
			s.conf++
		}
	case !trained:
		s = refVPTSlot{val: actual, conf: 1}
	case s.conf > 0:
		r.stats.Demotes++
		s.conf--
	default:
		r.stats.Replacements++
		s = refVPTSlot{val: actual, conf: 1}
	}
	r.vpt[si] = s
	h := r.history(pc)
	h = append([]uint64{actual}, h[:r.cfg.HistLen-1]...)
	r.hist[r.vhtIndex(pc)] = h
}

// vptSnapshot materializes the implementation's trained VPT slots. Value
// AND confidence equality pins not just current predictions but future
// replacement victims (a slot replaces only at confidence zero).
func (p *TwoLevel) vptSnapshot() map[int]refVPTSlot {
	snap := make(map[int]refVPTSlot)
	for i, ok := range p.vvals {
		if ok {
			snap[i] = refVPTSlot{val: p.vals[i], conf: int(p.conf[i])}
		}
	}
	return snap
}

func (r *referenceTwoLevel) vptSnapshot() map[int]refVPTSlot {
	snap := make(map[int]refVPTSlot, len(r.vpt))
	for i, s := range r.vpt {
		snap[i] = s
	}
	return snap
}

// checkTwoLevelState fails on any observable divergence between the flat
// implementation and the map reference.
func checkTwoLevelState(t *testing.T, step int, got *TwoLevel, want *referenceTwoLevel) {
	t.Helper()
	if g, w := got.Stats(), want.stats; g != w {
		t.Fatalf("step %d: stats diverged:\n flat      %+v\n reference %+v", step, g, w)
	}
	if g, w := got.vptSnapshot(), want.vptSnapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("step %d: VPT slots diverged:\n flat      %v\n reference %v", step, g, w)
	}
	k := want.cfg.HistLen
	for e := 0; e < want.cfg.VHTEntries; e++ {
		gh := got.hist[e*k : e*k+k]
		wh, ok := want.hist[e]
		if !ok {
			wh = make([]uint64, k)
		}
		if !reflect.DeepEqual(append([]uint64{}, gh...), wh) {
			t.Fatalf("step %d: VHT entry %d diverged: flat %v, reference %v", step, e, gh, wh)
		}
	}
}

// twoLevelOp is one step of a differential script.
type twoLevelOp struct {
	kind int // 0 lookup, 1 update
	pc   uint64
	val  uint64
}

func applyTwoLevelOp(t *testing.T, step int, op twoLevelOp, got *TwoLevel, want *referenceTwoLevel) {
	t.Helper()
	switch op.kind {
	case 0:
		gv, gok := got.Lookup(op.pc)
		wv, wok := want.Lookup(op.pc)
		if gv != wv || gok != wok {
			t.Fatalf("step %d: Lookup(%#x) = (%d, %v), reference (%d, %v)",
				step, op.pc, gv, gok, wv, wok)
		}
	case 1:
		got.Update(op.pc, op.val)
		want.Update(op.pc, op.val)
	}
	checkTwoLevelState(t, step, got, want)
}

// randomTwoLevelOp draws from a collision-heavy regime: a pc window much
// wider than the VHT (entries alias), values from a small palette (the same
// signatures recur, so slots confirm, demote and replace) salted with
// occasional arbitrary values.
func randomTwoLevelOp(rnd *rand.Rand, cfg TwoLevelConfig) twoLevelOp {
	op := twoLevelOp{kind: rnd.Intn(2)}
	op.pc = uint64(rnd.Intn(cfg.VHTEntries*6)) * isa.InstBytes
	if rnd.Intn(8) == 0 {
		op.pc += uint64(rnd.Intn(int(isa.InstBytes))) // unaligned pcs too
	}
	if rnd.Intn(6) == 0 {
		op.val = rnd.Uint64()
	} else {
		op.val = uint64(rnd.Intn(7))
	}
	return op
}

// TestTwoLevelDifferential is the equivalence proof: several geometries
// (including degenerate k=1 and 1-bit confidence), many seeds, full-state
// comparison after every op.
func TestTwoLevelDifferential(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 600
	}
	geometries := []TwoLevelConfig{
		{VHTEntries: 8, HistLen: 1, VPTEntries: 16, ConfBits: 1, ConfThreshold: 1},
		{VHTEntries: 8, HistLen: 2, VPTEntries: 16, ConfBits: 2, ConfThreshold: 2},
		{VHTEntries: 16, HistLen: 4, VPTEntries: 64, ConfBits: 3, ConfThreshold: 5},
		{VHTEntries: 4, HistLen: 3, VPTEntries: 8, ConfBits: 2, ConfThreshold: 9}, // thresh clamps to confMax
	}
	for _, cfg := range geometries {
		for seed := int64(0); seed < 8; seed++ {
			rnd := rand.New(rand.NewSource(seed*977 + int64(cfg.VPTEntries)))
			got := NewTwoLevel(cfg)
			want := newReferenceTwoLevel(cfg)
			for step := 0; step < steps; step++ {
				applyTwoLevelOp(t, step, randomTwoLevelOp(rnd, cfg), got, want)
			}
		}
	}
}

// FuzzTwoLevelDifferential interprets the fuzz input as an operation
// script, so the fuzzer can hunt for divergent sequences beyond the random
// regime. Each op consumes 3 bytes: kind, pc selector, value selector —
// small domains keep the VHT aliasing and the signatures colliding.
func FuzzTwoLevelDifferential(f *testing.F) {
	f.Add([]byte{2, 0, 5, 2, 0, 5, 0, 0, 0})          // train then look up
	f.Add([]byte{2, 8, 1, 2, 0, 1, 2, 8, 2, 0, 8, 0}) // aliasing pcs
	f.Fuzz(func(t *testing.T, script []byte) {
		cfg := TwoLevelConfig{VHTEntries: 4, HistLen: 2, VPTEntries: 8, ConfBits: 2, ConfThreshold: 2}
		got := NewTwoLevel(cfg)
		want := newReferenceTwoLevel(cfg)
		for step := 0; len(script) >= 3; step++ {
			op := twoLevelOp{
				kind: int(script[0] % 2),
				pc:   uint64(script[1]) * isa.InstBytes,
				val:  uint64(script[2] % 16),
			}
			script = script[3:]
			applyTwoLevelOp(t, step, op, got, want)
		}
	})
}

// TestTwoLevelLearnsConstant pins the confidence ramp on the simplest
// workload: a constant load speaks within three updates and stays right.
func TestTwoLevelLearnsConstant(t *testing.T) {
	p := NewTwoLevel(TwoLevelConfig{VHTEntries: 16, HistLen: 1, VPTEntries: 64, ConfBits: 2, ConfThreshold: 2})
	pc := uint64(0x1000)
	if _, ok := p.Lookup(pc); ok {
		t.Fatal("cold predictor must decline")
	}
	for i := 0; i < 3; i++ {
		p.Update(pc, 42)
	}
	if v, ok := p.Lookup(pc); !ok || v != 42 {
		t.Fatalf("after 3 constant updates Lookup = (%d, %v), want (42, true)", v, ok)
	}
	if st := p.Stats(); st.Confirms == 0 {
		t.Fatalf("constant training recorded no confirms: %+v", st)
	}
}

// TestTwoLevelLearnsCycle is the predictor's raison d'être: a value
// sequence no last-value or stride predictor can track. After warm-up the
// history signature disambiguates every position of the cycle.
func TestTwoLevelLearnsCycle(t *testing.T) {
	p := NewTwoLevel(TwoLevelConfig{VHTEntries: 16, HistLen: 2, VPTEntries: 256, ConfBits: 2, ConfThreshold: 2})
	pc := uint64(0x2000)
	seq := []uint64{3, 7, 9, 4}
	for range 8 {
		for _, v := range seq {
			p.Update(pc, v)
		}
	}
	for i, v := range seq {
		got, ok := p.Lookup(pc)
		if !ok || got != v {
			t.Fatalf("cycle position %d: Lookup = (%d, %v), want (%d, true)", i, got, ok, v)
		}
		p.Update(pc, v)
	}
}

// TestTwoLevelZeroConfigDefaults pins that zero-valued fields select the
// default geometry rather than panicking.
func TestTwoLevelZeroConfigDefaults(t *testing.T) {
	p := NewTwoLevel(TwoLevelConfig{})
	if p.Name() != "two-level" {
		t.Fatalf("Name = %q", p.Name())
	}
	if got, want := len(p.vals), DefaultTwoLevel.VPTEntries; got != want {
		t.Fatalf("default VPT size = %d, want %d", got, want)
	}
	if got, want := len(p.hist), DefaultTwoLevel.VHTEntries*DefaultTwoLevel.HistLen; got != want {
		t.Fatalf("default VHT size = %d, want %d", got, want)
	}
}

// TestTwoLevelBadGeometryPanics sweeps the constructor's validation.
func TestTwoLevelBadGeometryPanics(t *testing.T) {
	cases := []struct {
		name string
		cfg  TwoLevelConfig
	}{
		{"non-pow2 VHT", TwoLevelConfig{VHTEntries: 3}},
		{"negative VHT", TwoLevelConfig{VHTEntries: -8}},
		{"non-pow2 VPT", TwoLevelConfig{VPTEntries: 6}},
		{"negative history", TwoLevelConfig{HistLen: -1}},
		{"confidence too wide", TwoLevelConfig{ConfBits: 9}},
		{"negative confidence", TwoLevelConfig{ConfBits: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewTwoLevel(%+v) did not panic", tc.cfg)
				}
			}()
			NewTwoLevel(tc.cfg)
		})
	}
}

// TestTwoLevelOpsAllocFree pins the zero-allocation contract of the
// predict/update hot path.
func TestTwoLevelOpsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	p := NewTwoLevel(TwoLevelConfig{VHTEntries: 64, HistLen: 4, VPTEntries: 256, ConfBits: 2, ConfThreshold: 2})
	rnd := rand.New(rand.NewSource(3))
	work := func() {
		pc := uint64(rnd.Intn(256)) * isa.InstBytes
		switch rnd.Intn(2) {
		case 0:
			p.Lookup(pc)
		case 1:
			p.Update(pc, uint64(rnd.Intn(8)))
		}
	}
	for i := 0; i < 10_000; i++ {
		work()
	}
	if avg := testing.AllocsPerRun(10_000, work); avg != 0 {
		t.Fatalf("two-level ops allocate %v allocs/op, want 0", avg)
	}
}
