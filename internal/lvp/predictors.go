package lvp

import "lvp/internal/isa"

// Predictor is the interface for the value predictors the paper's §7
// ("future work") sketches beyond the last-value LVPT: stride detection and
// context-based prediction. They plug into MeasureZoo and the
// custompredictor example.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string
	// Lookup returns the predicted value for the load at pc and whether
	// the predictor speaks: a cold table entry, a tag miss or confidence
	// below threshold declines, with value 0.
	Lookup(pc uint64) (value uint64, ok bool)
	// Update trains the predictor with the actual loaded value.
	Update(pc, actual uint64)
}

// NewLastValue returns the baseline history-depth-1 LVPT as a Predictor.
func NewLastValue(entries int) *TableValue {
	return NewTableValue("last-value", NewLVPT(entries, 1))
}

// TableValue adapts any ValueTable organisation (untagged, tagged or
// set-associative) into a last-value Predictor, so the zoo can ablate table
// organisation with the prediction policy held fixed.
type TableValue struct {
	name string
	t    ValueTable
}

// NewTableValue wraps t as a Predictor reporting the given family name.
func NewTableValue(name string, t ValueTable) *TableValue {
	return &TableValue{name: name, t: t}
}

// Name implements Predictor.
func (p *TableValue) Name() string { return p.name }

// Lookup implements Predictor: tag misses and cold sets decline.
func (p *TableValue) Lookup(pc uint64) (uint64, bool) { return p.t.Predict(pc) }

// Update implements Predictor.
func (p *TableValue) Update(pc, actual uint64) { p.t.Update(pc, actual) }

// TableStats implements TableStatser.
func (p *TableValue) TableStats() LVPTStats { return p.t.Stats() }

// Stride predicts last + stride, with a two-delta confirmation: the stride
// is only replaced after the same new delta is seen twice in a row, which
// keeps one irregular value from destroying a stable stride (the classic
// stride-predictor refinement).
type Stride struct {
	mask    uint64
	last    []uint64
	stride  []uint64
	pending []uint64
	confirm []bool
	valid   []bool
}

// NewStride returns a stride predictor with the given table size (power of
// two).
func NewStride(entries int) *Stride {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("lvp: stride entries must be a positive power of two")
	}
	return &Stride{
		mask:    uint64(entries - 1),
		last:    make([]uint64, entries),
		stride:  make([]uint64, entries),
		pending: make([]uint64, entries),
		confirm: make([]bool, entries),
		valid:   make([]bool, entries),
	}
}

// Name implements Predictor.
func (p *Stride) Name() string { return "stride" }

func (p *Stride) index(pc uint64) int { return int((pc / isa.InstBytes) & p.mask) }

// Lookup implements Predictor: cold entries decline.
func (p *Stride) Lookup(pc uint64) (uint64, bool) {
	i := p.index(pc)
	if !p.valid[i] {
		return 0, false
	}
	return p.last[i] + p.stride[i], true
}

// Update implements Predictor.
func (p *Stride) Update(pc, actual uint64) {
	i := p.index(pc)
	if p.valid[i] {
		delta := actual - p.last[i]
		switch {
		case delta == p.stride[i]:
			p.confirm[i] = false
		case p.confirm[i] && delta == p.pending[i]:
			p.stride[i] = delta
			p.confirm[i] = false
		default:
			p.pending[i] = delta
			p.confirm[i] = true
		}
	}
	p.last[i] = actual
	p.valid[i] = true
}

// Context is an order-2 finite-context predictor: the pair of the last two
// values observed by an entry selects a slot in a pattern table holding the
// value that followed that pair last time.
type Context struct {
	mask    uint64
	pmask   uint64
	last1   []uint64
	last2   []uint64
	pattern []uint64
	pvalid  []bool
}

// NewContext returns a context predictor with `entries` history entries and
// `patterns` pattern-table slots (both powers of two).
func NewContext(entries, patterns int) *Context {
	if entries <= 0 || entries&(entries-1) != 0 ||
		patterns <= 0 || patterns&(patterns-1) != 0 {
		panic("lvp: context table sizes must be positive powers of two")
	}
	return &Context{
		mask:    uint64(entries - 1),
		pmask:   uint64(patterns - 1),
		last1:   make([]uint64, entries),
		last2:   make([]uint64, entries),
		pattern: make([]uint64, patterns),
		pvalid:  make([]bool, patterns),
	}
}

// Name implements Predictor.
func (p *Context) Name() string { return "context-2" }

func (p *Context) index(pc uint64) int { return int((pc / isa.InstBytes) & p.mask) }

func (p *Context) slot(pc uint64) int {
	i := p.index(pc)
	h := p.last1[i]*0x9E3779B97F4A7C15 ^ p.last2[i]*0xBF58476D1CE4E5B9 ^ pc
	h ^= h >> 29
	return int(h & p.pmask)
}

// Lookup implements Predictor: untrained pattern slots decline.
func (p *Context) Lookup(pc uint64) (uint64, bool) {
	s := p.slot(pc)
	if !p.pvalid[s] {
		return 0, false
	}
	return p.pattern[s], true
}

// Update implements Predictor.
func (p *Context) Update(pc, actual uint64) {
	s := p.slot(pc)
	p.pattern[s] = actual
	p.pvalid[s] = true
	i := p.index(pc)
	p.last2[i] = p.last1[i]
	p.last1[i] = actual
}

// TwoValue is a buildable depth-2 value predictor: each entry holds two
// values and a 2-bit selector trained toward whichever value keeps being
// right. It is the realistic counterpart of the Limit configuration's
// depth-16 *oracle* — what "multiple values per static load" (paper §7)
// costs when the selection mechanism has to be real hardware.
type TwoValue struct {
	mask uint64
	v0   []uint64
	v1   []uint64
	sel  []uint8 // 2-bit: 0,1 -> v0; 2,3 -> v1
}

// NewTwoValue returns a two-value predictor with the given entries (power
// of two).
func NewTwoValue(entries int) *TwoValue {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("lvp: two-value entries must be a positive power of two")
	}
	return &TwoValue{
		mask: uint64(entries - 1),
		v0:   make([]uint64, entries),
		v1:   make([]uint64, entries),
		sel:  make([]uint8, entries),
	}
}

// Name implements Predictor.
func (p *TwoValue) Name() string { return "two-value" }

func (p *TwoValue) index(pc uint64) int { return int((pc / isa.InstBytes) & p.mask) }

// Lookup implements Predictor: the two-value predictor always speaks.
func (p *TwoValue) Lookup(pc uint64) (uint64, bool) {
	i := p.index(pc)
	if p.sel[i] >= 2 {
		return p.v1[i], true
	}
	return p.v0[i], true
}

// Update implements Predictor.
func (p *TwoValue) Update(pc, actual uint64) {
	i := p.index(pc)
	switch actual {
	case p.v0[i]:
		if p.sel[i] > 0 {
			p.sel[i]--
		}
	case p.v1[i]:
		if p.sel[i] < 3 {
			p.sel[i]++
		}
	default:
		// Replace the value the selector trusts less.
		if p.sel[i] >= 2 {
			p.v0[i] = actual
			if p.sel[i] > 0 {
				p.sel[i]--
			}
		} else {
			p.v1[i] = actual
			if p.sel[i] < 3 {
				p.sel[i]++
			}
		}
	}
}
