package lvp

import "lvp/internal/isa"

// TwoLevel is the two-level context-based value predictor the paper's §7
// leaves as future work, in the shape the gem5VP lineage standardised: a
// Value History Table (VHT) keeps the last k values each static load
// produced, a hash of that history — the value-history signature — indexes a
// Value Prediction Table (VPT) whose entries pair a predicted value with a
// saturating confidence counter. The predictor only speaks when confidence
// has reached the threshold; below it, Lookup declines, which is what a real
// pipeline would do rather than inject a low-confidence value.
//
// Both tables are direct-mapped flat arrays, so the predict/update path is
// allocation-free. The VHT is untagged (per-PC entries alias like the
// paper's LVPT); the VPT is shared across loads whose signatures collide,
// which is the classic finite-context-method trade-off.
type TwoLevelConfig struct {
	// VHTEntries is the number of per-PC history entries (power of two).
	VHTEntries int
	// HistLen is k, the number of previous values per VHT entry (>= 1).
	HistLen int
	// VPTEntries is the number of signature-indexed prediction slots
	// (power of two).
	VPTEntries int
	// ConfBits is the confidence counter width (1..8).
	ConfBits int
	// ConfThreshold is the minimum counter value at which the predictor
	// speaks; clamped to the counter's saturation value.
	ConfThreshold int
}

// DefaultTwoLevel is the zoo's standard two-level geometry: 1K-entry VHT of
// depth-4 histories feeding a 4K-entry VPT with 2-bit confidence, predicting
// at counter >= 2.
var DefaultTwoLevel = TwoLevelConfig{
	VHTEntries:    1024,
	HistLen:       4,
	VPTEntries:    4096,
	ConfBits:      2,
	ConfThreshold: 2,
}

// TwoLevelStats counts predictor events. Plain ints: one predictor runs on
// one goroutine; aggregation into shared counters happens per sweep cell.
type TwoLevelStats struct {
	// Lookups counts Lookup calls; Predicted the subset where
	// confidence cleared the threshold (the predictor spoke).
	Lookups   int64
	Predicted int64
	// Updates counts training calls; Confirms the subset where the VPT
	// slot already held the actual value (confidence rose), Demotes the
	// mismatches that only lowered confidence, and Replacements the
	// mismatches that displaced the slot's value (its confidence had
	// reached zero — the VPT's eviction).
	Updates      int64
	Confirms     int64
	Demotes      int64
	Replacements int64
}

// TwoLevel implements the predictor. See TwoLevelConfig for the geometry.
type TwoLevel struct {
	k       int
	vhtMask uint64
	vptMask uint64
	thresh  uint8
	confMax uint8

	hist  []uint64 // VHT: entry i holds hist[i*k .. i*k+k), MRU at offset 0
	vals  []uint64 // VPT predicted values
	conf  []uint8  // VPT confidence counters
	vvals []bool   // VPT slot holds a trained value
	stats TwoLevelStats
}

// NewTwoLevel returns a two-level predictor; a zero-value field in cfg
// selects the DefaultTwoLevel value for that field.
func NewTwoLevel(cfg TwoLevelConfig) *TwoLevel {
	if cfg.VHTEntries == 0 {
		cfg.VHTEntries = DefaultTwoLevel.VHTEntries
	}
	if cfg.HistLen == 0 {
		cfg.HistLen = DefaultTwoLevel.HistLen
	}
	if cfg.VPTEntries == 0 {
		cfg.VPTEntries = DefaultTwoLevel.VPTEntries
	}
	if cfg.ConfBits == 0 {
		cfg.ConfBits = DefaultTwoLevel.ConfBits
	}
	if cfg.ConfThreshold == 0 {
		cfg.ConfThreshold = DefaultTwoLevel.ConfThreshold
	}
	if cfg.VHTEntries <= 0 || cfg.VHTEntries&(cfg.VHTEntries-1) != 0 {
		panic("lvp: two-level VHT entries must be a positive power of two")
	}
	if cfg.VPTEntries <= 0 || cfg.VPTEntries&(cfg.VPTEntries-1) != 0 {
		panic("lvp: two-level VPT entries must be a positive power of two")
	}
	if cfg.HistLen < 1 {
		panic("lvp: two-level history length must be >= 1")
	}
	if cfg.VHTEntries*cfg.HistLen/cfg.HistLen != cfg.VHTEntries {
		panic("lvp: two-level VHT entries * history length overflows int")
	}
	if cfg.ConfBits < 1 || cfg.ConfBits > 8 {
		panic("lvp: two-level confidence bits must be in [1,8]")
	}
	confMax := uint8(1<<uint(cfg.ConfBits) - 1)
	thresh := cfg.ConfThreshold
	if thresh > int(confMax) {
		thresh = int(confMax)
	}
	if thresh < 1 {
		thresh = 1
	}
	return &TwoLevel{
		k:       cfg.HistLen,
		vhtMask: uint64(cfg.VHTEntries - 1),
		vptMask: uint64(cfg.VPTEntries - 1),
		thresh:  uint8(thresh),
		confMax: confMax,
		hist:    make([]uint64, cfg.VHTEntries*cfg.HistLen),
		vals:    make([]uint64, cfg.VPTEntries),
		conf:    make([]uint8, cfg.VPTEntries),
		vvals:   make([]bool, cfg.VPTEntries),
	}
}

// Name implements Predictor.
func (p *TwoLevel) Name() string { return "two-level" }

// vhtIndex selects the per-PC history entry.
func (p *TwoLevel) vhtIndex(pc uint64) int { return int((pc / isa.InstBytes) & p.vhtMask) }

// slot hashes the load's value-history signature into a VPT index. The
// formula is part of the predictor's specification (the differential test's
// reference model derives it independently): starting from the word-aligned
// pc, each history value is xor-folded in MRU-first and diffused by a
// Fibonacci-hash multiply and shift-xor.
func (p *TwoLevel) slot(pc uint64) int {
	i := p.vhtIndex(pc) * p.k
	h := pc / isa.InstBytes
	for j := 0; j < p.k; j++ {
		h = (h ^ p.hist[i+j]) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return int(h & p.vptMask)
}

// Lookup implements Predictor: ok is false when the VPT slot is untrained
// or its confidence is below threshold.
func (p *TwoLevel) Lookup(pc uint64) (value uint64, ok bool) {
	p.stats.Lookups++
	s := p.slot(pc)
	if !p.vvals[s] || p.conf[s] < p.thresh {
		return 0, false
	}
	p.stats.Predicted++
	return p.vals[s], true
}

// Update trains the predictor: the VPT slot selected by the pre-update
// history learns the actual value (confidence up on confirmation, down on
// mismatch, value replaced once confidence is exhausted), then the actual
// value enters the VHT history.
func (p *TwoLevel) Update(pc, actual uint64) {
	p.stats.Updates++
	s := p.slot(pc)
	switch {
	case p.vvals[s] && p.vals[s] == actual:
		p.stats.Confirms++
		if p.conf[s] < p.confMax {
			p.conf[s]++
		}
	case !p.vvals[s]:
		p.vvals[s] = true
		p.vals[s] = actual
		p.conf[s] = 1
	case p.conf[s] > 0:
		p.stats.Demotes++
		p.conf[s]--
	default:
		p.stats.Replacements++
		p.vals[s] = actual
		p.conf[s] = 1
	}
	i := p.vhtIndex(pc) * p.k
	h := p.hist[i : i+p.k]
	copy(h[1:], h[:p.k-1])
	h[0] = actual
}

// Stats returns the accumulated predictor counters.
func (p *TwoLevel) Stats() TwoLevelStats { return p.stats }
