package lvp

import (
	"lvp/internal/obs"
	"lvp/internal/trace"
)

// Slab runs the unit over a trace's memory-op lanes (Trace.Mem) in trace
// order: each run of loads between two stores goes to LoadBatch as
// sub-slices of the load lanes (PCs gathered), and each store to Store.
// Records that are neither never reach the unit, so this is exactly
// RecordBatch over the trace. Load i's state is written to states[i] (load
// order; len(states) must be at least s.Len()); the walk allocates nothing.
func (u *Unit) Slab(s trace.MemOps, states []trace.PredState) {
	next := 0
	for k, at := range s.StoreAt {
		u.slabLoads(s, next, int(at), states)
		next = int(at)
		u.Store(s.StoreAddrs[k], int(s.StoreSizes[k]))
	}
	u.slabLoads(s, next, s.Len(), states)
}

const slabPCs = 1024 // the most load PCs Slab gathers for one LoadBatch

// slabLoads hands loads [i, j) of the lanes to LoadBatch, gathering their
// PCs from the row table into u.pcs.
func (u *Unit) slabLoads(s trace.MemOps, i, j int, states []trace.PredState) {
	for n := 0; i < j; i += n {
		n = min(j-i, slabPCs)
		pcs := u.pcs[:n]
		for k, row := range s.LoadRows[i : i+n] {
			pcs[k] = s.RowPCs[row]
		}
		u.LoadBatch(pcs, s.Addrs[i:i+n], s.Values[i:i+n], states[i:i+n])
	}
}

// AnnotateSlab runs a fresh unit under cfg over memory-op lanes (see
// Unit.Slab), writes every load's state into states in load order and
// returns the unit's statistics. tr attaches an event tracer (nil disables
// tracing); the events are Annotate's, in the same order.
func AnnotateSlab(s trace.MemOps, cfg Config, tr *obs.Tracer, states []trace.PredState) (Stats, error) {
	u, err := NewUnit(cfg)
	if err != nil {
		return Stats{}, err
	}
	u.SetTracer(tr)
	u.Slab(s, states)
	return u.Stats(), nil
}
