package lvp

import (
	"lvp/internal/obs"
	"lvp/internal/trace"
)

// Slab runs the unit over a trace's memory-op lanes (Trace.Mem) in trace
// order: each run of loads between two stores goes to Unit.LoadBatch as
// sub-slices of the load lanes, and each store to Unit.Store. Records that
// are neither never reach the unit, so this is exactly RecordBatch over the
// trace. Load i's state is written to states[i] (load order; len(states)
// must be at least s.Len()), so the walk itself allocates nothing.
func (a *Annotator) Slab(s trace.MemOps, states []trace.PredState) {
	next := 0
	for k, at := range s.StoreAt {
		a.slabLoads(s, next, int(at), states)
		next = int(at)
		a.u.Store(s.StoreAddrs[k], int(s.StoreSizes[k]))
	}
	a.slabLoads(s, next, s.Len(), states)
}

// slabLoads hands loads [i, j) of the lanes to Unit.LoadBatch.
func (a *Annotator) slabLoads(s trace.MemOps, i, j int, states []trace.PredState) {
	if i < j {
		a.u.LoadBatch(s.PCs[i:j], s.Addrs[i:j], s.Values[i:j], states[i:j])
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
