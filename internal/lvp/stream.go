package lvp

import "lvp/internal/trace"

// RecordBatch is the streaming form of Annotate: records are fed in trace
// order, in batches of any size, and each receives its prediction state
// immediately. It processes recs in order, writing each record's state into
// the parallel states slice (len(states) must be at least len(recs)): loads
// are predicted and verified, stores invalidate the CVU, and everything else
// passes through as PredNone. Runs of consecutive loads are gathered into
// the unit's operand scratch and handed to LoadBatch (whose states land
// contiguously back in states); stores and other records are handled in
// place. Trace order — and with it the CVU invalidation discipline — is
// preserved exactly, so any split of a trace into batches yields the same
// states and statistics. It is allocation-free once the scratch has grown.
func (u *Unit) RecordBatch(recs []trace.Record, states []trace.PredState) {
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
		u.pcs, u.addrs, u.vals = u.pcs[:0], u.addrs[:0], u.vals[:0]
		for k := i; k < j; k++ {
			rk := &recs[k]
			u.pcs = append(u.pcs, rk.PC)
			u.addrs = append(u.addrs, rk.Addr)
			u.vals = append(u.vals, rk.Value)
		}
		u.LoadBatch(u.pcs, u.addrs, u.vals, states[i:j])
		i = j
	}
}
