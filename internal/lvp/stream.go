package lvp

import (
	"lvp/internal/obs"
	"lvp/internal/trace"
)

// Annotator is the streaming form of Annotate: records are fed in trace
// order, in batches of any size, and each receives its prediction state
// immediately. It is phase 2 of the pipeline without the materialized trace
// — the unit state, classification and CVU discipline are exactly
// Annotate's, because Annotate is implemented on top of it. RecordBatch is
// allocation-free once its gather scratch has grown, so the per-load
// predict/verify path runs at full speed over any record stream.
type Annotator struct {
	u *Unit
	// Gather scratch: consecutive loads are copied into these parallel
	// slices so Unit.LoadBatch runs over plain arrays (Slab gathers PCs
	// only). They grow to the longest run seen and are then reused.
	pcs, addrs, vals []uint64
}

// NewAnnotator returns a streaming annotator for the given configuration;
// tr attaches an event tracer (nil disables tracing).
func NewAnnotator(cfg Config, tr *obs.Tracer) (*Annotator, error) {
	u, err := NewUnit(cfg)
	if err != nil {
		return nil, err
	}
	u.SetTracer(tr)
	return &Annotator{u: u, pcs: make([]uint64, 0, slabPCs)}, nil
}

// RecordBatch processes recs in order, writing each record's state into the
// parallel states slice (len(states) must be at least len(recs)): loads are
// predicted and verified, stores invalidate the CVU, and everything else
// passes through as PredNone. Runs of consecutive loads are gathered into
// parallel operand slices and handed to Unit.LoadBatch (whose states land
// contiguously back in states); stores and other records are handled in
// place. Trace order — and with it the CVU invalidation discipline — is
// preserved exactly, so any split of a trace into batches yields the same
// states and statistics.
func (a *Annotator) RecordBatch(recs []trace.Record, states []trace.PredState) {
	u := a.u
	for i := 0; i < len(recs); {
		r := &recs[i]
		if !r.IsLoad() {
			if r.IsStore() {
				u.Store(r.Addr, int(r.Size))
			}
			states[i] = trace.PredNone
			i++
			continue
		}
		j := i + 1
		for j < len(recs) && recs[j].IsLoad() {
			j++
		}
		a.pcs, a.addrs, a.vals = a.pcs[:0], a.addrs[:0], a.vals[:0]
		for k := i; k < j; k++ {
			rk := &recs[k]
			a.pcs = append(a.pcs, rk.PC)
			a.addrs = append(a.addrs, rk.Addr)
			a.vals = append(a.vals, rk.Value)
		}
		u.LoadBatch(a.pcs, a.addrs, a.vals, states[i:j])
		i = j
	}
}

// Stats returns the unit statistics accumulated so far.
func (a *Annotator) Stats() Stats { return a.u.Stats() }
