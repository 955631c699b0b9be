package lvp

import (
	"lvp/internal/obs"
	"lvp/internal/trace"
)

// Slab runs the unit over a trace's memory-op lanes (Trace.Mem) in trace
// order: each run of loads between two stores goes to Unit.LoadBatch as
// sub-slices of the load lanes (PCs gathered), and each store to Unit.Store.
// Records that are neither never reach the unit, so this is exactly
// RecordBatch over the trace. Load i's state is written to states[i] (load
// order; len(states) must be at least s.Len()); the walk allocates nothing.
func (a *Annotator) Slab(s trace.MemOps, states []trace.PredState) {
	next := 0
	for k, at := range s.StoreAt {
		a.slabLoads(s, next, int(at), states)
		next = int(at)
		a.u.Store(s.StoreAddrs[k], int(s.StoreSizes[k]))
	}
	a.slabLoads(s, next, s.Len(), states)
}

const slabPCs = 1024 // the most load PCs Slab gathers for one Unit.LoadBatch

// slabLoads hands loads [i, j) of the lanes to Unit.LoadBatch, gathering
// their PCs from the row table into a.pcs.
func (a *Annotator) slabLoads(s trace.MemOps, i, j int, states []trace.PredState) {
	for n := 0; i < j; i += n {
		n = min(j-i, slabPCs)
		pcs := a.pcs[:n]
		for k, row := range s.LoadRows[i : i+n] {
			pcs[k] = s.RowPCs[row]
		}
		a.u.LoadBatch(pcs, s.Addrs[i:i+n], s.Values[i:i+n], states[i:i+n])
	}
}

// AnnotateSlab runs a fresh unit under cfg over memory-op lanes (see
// Annotator.Slab), writes every load's state into states in load order and
// returns the unit's statistics. tr attaches an event tracer (nil disables
// tracing); the events are Annotate's, in the same order.
func AnnotateSlab(s trace.MemOps, cfg Config, tr *obs.Tracer, states []trace.PredState) (Stats, error) {
	a, err := NewAnnotator(cfg, tr)
	if err != nil {
		return Stats{}, err
	}
	a.Slab(s, states)
	return a.Stats(), nil
}
