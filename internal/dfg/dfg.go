// Package dfg computes dataflow (true-dependence) limits of a trace: the
// fastest possible execution on a machine with infinite resources and
// perfect control prediction, bounded only by register dataflow and
// instruction latencies. Comparing the limit with loads at full latency
// against the limit with correctly-predicted loads collapsed to zero cycles
// isolates the paper's central claim — that load value prediction "collapses
// true dependencies" — from any particular machine configuration.
package dfg

import (
	"lvp/internal/isa"
	"lvp/internal/trace"
)

// Result summarises one dataflow-limit computation.
type Result struct {
	// CriticalPath is the longest register-dataflow chain in cycles.
	CriticalPath int
	// Instructions is the trace length.
	Instructions int
	// CollapsedLoads counts loads whose latency the annotation removed.
	CollapsedLoads int
}

// LimitIPC is the dataflow-limit instructions-per-cycle.
func (r Result) LimitIPC() float64 {
	if r.CriticalPath == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.CriticalPath)
}

// Analyze computes the dataflow limit of a trace. If ann is non-nil, loads
// annotated PredCorrect or PredConstant contribute zero latency (their
// values were forwarded at dispatch); every other instruction takes lat of
// its opcode, a machine's result latency (such as the 620's
// Latencies.Result). Memory dependences are honoured conservatively: a load
// depends on the latest older store that overlaps its address. A non-nil
// ann must hold one state per record; otherwise Analyze returns
// trace.ErrAnnotationLength.
func Analyze(t *trace.Trace, ann trace.Annotation, lat func(isa.Op) int) (Result, error) {
	if err := t.CheckAnnotation(ann); err != nil {
		return Result{}, err
	}
	static, w := t.Static(), t.Walk()
	// One row per static row: its latency and scoreboard slots, derived
	// once from lat and the isa switch functions.
	type rowInfo struct {
		lat         int
		src         [2]uint8 // isa.Sources; 0 = none (GPR R0 is never written)
		dst         uint8    // isa.Dest; 0 = none
		size        uint64
		load, store bool
	}
	rows := make([]rowInfo, len(static))
	for j := range static {
		r, info := &static[j], &rows[j]
		*info = rowInfo{lat: lat(r.Op), size: uint64(r.Size), load: r.IsLoad(), store: r.IsStore()}
		info.src, info.dst = isa.Slots(r.Inst())
	}
	var ready [isa.NumSlots]int
	// lastStoreDone maps 8-byte-aligned addresses to the completion time
	// of the last store covering them.
	lastStoreDone := make(map[uint64]int)
	res := Result{Instructions: t.Len()}
	critical := 0

	for i := range t.Len() {
		info := &rows[w.Next()]
		start := max(ready[info.src[0]], ready[info.src[1]])
		latency := info.lat
		if info.load {
			// Memory dependence on the most recent overlapping store.
			addr := w.Addr()
			for a := addr &^ 7; a < addr+info.size; a += 8 {
				if d := lastStoreDone[a]; d > start {
					start = d
				}
			}
			if ann != nil && (ann[i] == trace.PredCorrect || ann[i] == trace.PredConstant) {
				latency = 0 // collapsed true dependence
				res.CollapsedLoads++
			}
		}
		done := start + latency
		if info.store {
			addr := w.Addr()
			for a := addr &^ 7; a < addr+info.size; a += 8 {
				if done > lastStoreDone[a] {
					lastStoreDone[a] = done
				}
			}
		}
		if info.dst != 0 {
			ready[info.dst] = done
		}
		if done > critical {
			critical = done
		}
	}
	res.CriticalPath = critical
	return res, nil
}
