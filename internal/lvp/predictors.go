package lvp

import (
	"lvp/internal/isa"
	"lvp/internal/locality"
	"lvp/internal/trace"
)

// Predictor is the interface for the value predictors the paper's §7
// ("future work") sketches beyond the last-value LVPT: stride detection and
// context-based prediction. They plug into MeasureAccuracy and the
// custompredictor example.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string
	// Predict returns the predicted value for the load at pc.
	Predict(pc uint64) uint64
	// Update trains the predictor with the actual loaded value.
	Update(pc, actual uint64)
}

// LastValue is the baseline history-depth-1 LVPT as a Predictor.
type LastValue struct {
	t *LVPT
}

// NewLastValue returns a last-value predictor with the given table size.
func NewLastValue(entries int) *LastValue {
	return &LastValue{t: NewLVPT(entries, 1)}
}

// Name implements Predictor.
func (p *LastValue) Name() string { return "last-value" }

// Lookup implements ConfidencePredictor: cold entries decline.
func (p *LastValue) Lookup(pc uint64) (uint64, bool) { return p.t.Predict(pc) }

// Predict implements Predictor.
func (p *LastValue) Predict(pc uint64) uint64 {
	v, _ := p.t.Predict(pc)
	return v
}

// Update implements Predictor.
func (p *LastValue) Update(pc, actual uint64) { p.t.Update(pc, actual) }

// TableStats implements TableStatser.
func (p *LastValue) TableStats() LVPTStats { return p.t.Stats() }

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

// Lookup implements ConfidencePredictor: tag misses and cold sets decline.
func (p *TableValue) Lookup(pc uint64) (uint64, bool) { return p.t.Predict(pc) }

// Predict implements Predictor.
func (p *TableValue) Predict(pc uint64) uint64 {
	v, _ := p.t.Predict(pc)
	return v
}

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

// Lookup implements ConfidencePredictor: cold entries decline.
func (p *Stride) Lookup(pc uint64) (uint64, bool) {
	i := p.index(pc)
	if !p.valid[i] {
		return 0, false
	}
	return p.last[i] + p.stride[i], true
}

// Predict implements Predictor.
func (p *Stride) Predict(pc uint64) uint64 {
	i := p.index(pc)
	if !p.valid[i] {
		return 0
	}
	return p.last[i] + p.stride[i]
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

// Lookup implements ConfidencePredictor: untrained pattern slots decline.
func (p *Context) Lookup(pc uint64) (uint64, bool) {
	s := p.slot(pc)
	if !p.pvalid[s] {
		return 0, false
	}
	return p.pattern[s], true
}

// Predict implements Predictor.
func (p *Context) Predict(pc uint64) uint64 {
	s := p.slot(pc)
	if !p.pvalid[s] {
		return 0
	}
	return p.pattern[s]
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

// MeasureAccuracy runs a predictor over every load of a pre-extracted slab
// (its PC and value lanes) and reports the fraction predicted exactly. The
// predictor always speaks: a ConfidencePredictor's declines are not
// consulted (MeasureZooLoads separates those out).
func MeasureAccuracy(loads LoadSlab, p Predictor) locality.Ratio {
	r := locality.Ratio{Total: loads.Len()}
	for i, pc := range loads.PCs {
		value := loads.Values[i]
		if p.Predict(pc) == value {
			r.Hits++
		}
		p.Update(pc, value)
	}
	return r
}

// MeasurePredictor is MeasureAccuracy over a trace: it gathers the trace's
// load PC and value lanes and runs the same loop.
func MeasurePredictor(t *trace.Trace, p Predictor) locality.Ratio {
	return MeasureAccuracy(valueLanes(t), p)
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

// Predict implements Predictor.
func (p *TwoValue) Predict(pc uint64) uint64 {
	i := p.index(pc)
	if p.sel[i] >= 2 {
		return p.v1[i]
	}
	return p.v0[i]
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
