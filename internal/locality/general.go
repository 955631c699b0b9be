package locality

import (
	"lvp/internal/isa"
	"lvp/internal/trace"
)

// GeneralResult measures value locality of the results of *all*
// register-writing instructions — the paper's §7 proposal of "speculating on
// values generated by instructions other than loads" needs exactly this
// number as its upper bound.
type GeneralResult struct {
	Depth   int
	Overall Ratio
	// ByClass breaks the measurement down by functional-unit class
	// (simple int, complex int, load, simple FP, complex FP, branch).
	ByClass [isa.NumClasses]Ratio
}

// MeasureGeneral computes result-value locality for every register-writing
// instruction at the requested history depths, using the same untagged
// direct-mapped apparatus as the load-only measurement.
func MeasureGeneral(t *trace.Trace, entries int, depths ...int) []GeneralResult {
	if entries <= 0 {
		entries = DefaultEntries
	}
	tables := make([]*HistoryTable, len(depths))
	results := make([]GeneralResult, len(depths))
	for i, d := range depths {
		tables[i] = NewHistoryTable(entries, d)
		results[i].Depth = d
	}
	static := t.Static()
	cls := make([]int8, len(static)) // per row: its class if it writes a register, else -1
	for j, s := range static {
		cls[j] = -1
		if in := s.Inst(); isa.WritesGPR(in) || isa.WritesFPR(in) {
			cls[j] = int8(isa.ClassOf(s.Op))
		}
	}
	w := t.Walk()
	for range t.Len() {
		row := w.Next()
		if v := w.Value(); cls[row] >= 0 {
			for k, tab := range tables {
				hit := tab.Access(static[row].PC, v)
				results[k].Overall.add(hit)
				results[k].ByClass[cls[row]].add(hit)
			}
		}
	}
	return results
}
