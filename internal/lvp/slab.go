package lvp

import (
	"lvp/internal/obs"
	"lvp/internal/trace"
)

// Slab runs the unit over a trace's memory-op lanes (Trace.Mem) in trace
// order: their LoadReader decodes up to slabPCs loads at a time into the
// unit's scratch, each run of them between two stores goes to LoadBatch,
// and each store to Store. Records that are neither never reach the unit,
// so this is exactly RecordBatch over the trace. Load i's state is written
// to states[i] (load order; len(states) must be at least s.Len()).
func (u *Unit) Slab(s trace.MemOps, states []trace.PredState) {
	r, k := s.Loads(), 0
	pcs, addrs, vals := u.pcs[:slabPCs], u.addrs[:slabPCs], u.vals[:slabPCs]
	for i, n := 0, 0; ; i += n {
		// Loads [i, i+n), split at the stores before load i+n: at every
		// store left, once no load is.
		n = r.Read(pcs, addrs, vals)
		j := i
		for ; k < len(s.StoreAt) && (n == 0 || int(s.StoreAt[k]) < i+n); k++ {
			at := int(s.StoreAt[k])
			u.LoadBatch(pcs[j-i:at-i], addrs[j-i:at-i], vals[j-i:at-i], states[j:at])
			u.Store(r.Store())
			j = at
		}
		if n == 0 {
			return
		}
		u.LoadBatch(pcs[j-i:n], addrs[j-i:n], vals[j-i:n], states[j:i+n])
	}
}

const slabPCs = 1024 // the most loads Slab decodes at once

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
