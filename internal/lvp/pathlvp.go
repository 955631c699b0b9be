package lvp

import (
	"lvp/internal/isa"
	"lvp/internal/locality"
	"lvp/internal/trace"
)

// PathLVP is the first refinement the paper's §7 proposes: "allowing
// multiple values per static load in the prediction table by including
// branch history bits ... in the lookup index". It is a last-value table
// indexed by a hash of the load PC and the global branch-history register,
// so one static load can hold a different prediction per control-flow path.
type PathLVP struct {
	mask     uint64
	histBits int
	ghr      uint64
	values   []uint64
}

// NewPathLVP returns a path-indexed table with the given entries (power of
// two) and number of branch-history bits folded into the index.
func NewPathLVP(entries, histBits int) *PathLVP {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("lvp: PathLVP entries must be a positive power of two")
	}
	if histBits < 0 || histBits > 32 {
		panic("lvp: PathLVP history bits must be in [0,32]")
	}
	return &PathLVP{
		mask:     uint64(entries - 1),
		histBits: histBits,
		values:   make([]uint64, entries),
	}
}

func (p *PathLVP) index(pc uint64) int {
	h := p.ghr & ((1 << p.histBits) - 1)
	return int(((pc / isa.InstBytes) ^ (h * 0x9E37)) & p.mask)
}

// Predict returns the value cached for (pc, current path).
func (p *PathLVP) Predict(pc uint64) uint64 { return p.values[p.index(pc)] }

// Update stores the actual value for (pc, current path).
func (p *PathLVP) Update(pc, actual uint64) { p.values[p.index(pc)] = actual }

// Branch shifts a branch outcome into the global history register; the
// measurement driver calls this for every conditional branch, mirroring a
// fetch-stage GHR.
func (p *PathLVP) Branch(taken bool) {
	p.ghr <<= 1
	if taken {
		p.ghr |= 1
	}
}

// MeasurePathAccuracy runs one PathLVP per histBits entry over a trace in
// a single pass and reports, per table, the fraction of loads predicted
// exactly: every conditional branch shifts each table's history register,
// and every load is scored by (then trains) each table. histBits = 0
// degenerates to plain last-value prediction (the control).
func MeasurePathAccuracy(t *trace.Trace, entries int, histBits ...int) []locality.Ratio {
	tables := make([]*PathLVP, len(histBits))
	for k, hb := range histBits {
		tables[k] = NewPathLVP(entries, hb)
	}
	rs := make([]locality.Ratio, len(histBits))
	cond, load := make([]bool, len(t.Static())), make([]bool, len(t.Static())) // per row
	for j, s := range t.Static() {
		cond[j], load[j] = isa.IsCondBranch(s.Op), s.IsLoad()
	}
	w := t.Walk()
	var br trace.Record
	for range t.Len() {
		switch row := w.Next(); {
		case cond[row]:
			w.Branch(&br)
			for _, p := range tables {
				p.Branch(br.Taken)
			}
		case load[row]:
			pc, v := t.Static()[row].PC, w.Value()
			for k, p := range tables {
				rs[k].Total++
				if p.Predict(pc) == v {
					rs[k].Hits++
				}
				p.Update(pc, v)
			}
		}
	}
	return rs
}
