package lvp

import (
	"fmt"
	"math"

	"lvp/internal/obs"
	"lvp/internal/trace"
)

// LoadSlab is the decode-once form of a trace's memory operations: every
// load and every store, in trace order, as parallel lanes. It is extracted
// once per trace and then shared by every consumer that only needs the
// memory-op stream — each predictor family of a zoo sweep, and each LVP
// unit configuration annotated over the trace — instead of each of them
// re-walking (and re-filtering) the full 48-byte record stream. The slab is
// immutable once built and safe to share across goroutines.
type LoadSlab struct {
	// Records is the length of the trace the slab was extracted from.
	Records int

	// Load lanes: load i executed at PCs[i], read Addrs[i], returned
	// Values[i], and is record Recs[i] of the trace.
	PCs    []uint64
	Addrs  []uint64
	Values []uint64
	Recs   []int32

	// Store lanes: store k wrote StoreSizes[k] bytes at StoreAddrs[k] after
	// the first StoreAt[k] loads of the stream and before the rest.
	StoreAddrs []uint64
	StoreSizes []uint8
	StoreAt    []int32
}

// Len reports the number of dynamic loads in the slab.
func (s LoadSlab) Len() int { return len(s.PCs) }

// ExtractLoads scans the trace once and returns its memory-op stream as a
// slab. Record indices are 32-bit, so the trace must hold fewer than
// math.MaxInt32 records.
func ExtractLoads(t *trace.Trace) LoadSlab {
	if len(t.Records) > math.MaxInt32 {
		panic(fmt.Sprintf("lvp: trace %s has %d records, more than a slab can index", t.Name, len(t.Records)))
	}
	loads, stores := 0, 0
	for i := range t.Records {
		switch r := &t.Records[i]; {
		case r.IsLoad():
			loads++
		case r.IsStore():
			stores++
		}
	}
	s := LoadSlab{
		Records:    len(t.Records),
		PCs:        make([]uint64, 0, loads),
		Addrs:      make([]uint64, 0, loads),
		Values:     make([]uint64, 0, loads),
		Recs:       make([]int32, 0, loads),
		StoreAddrs: make([]uint64, 0, stores),
		StoreSizes: make([]uint8, 0, stores),
		StoreAt:    make([]int32, 0, stores),
	}
	for i := range t.Records {
		switch r := &t.Records[i]; {
		case r.IsLoad():
			s.PCs = append(s.PCs, r.PC)
			s.Addrs = append(s.Addrs, r.Addr)
			s.Values = append(s.Values, r.Value)
			s.Recs = append(s.Recs, int32(i))
		case r.IsStore():
			s.StoreAddrs = append(s.StoreAddrs, r.Addr)
			s.StoreSizes = append(s.StoreSizes, r.Size)
			s.StoreAt = append(s.StoreAt, int32(len(s.PCs)))
		}
	}
	return s
}

// Scatter expands load-order states (one per slab load) into the per-record
// annotation of the slab's trace: load i's state lands on record Recs[i],
// and every other record is PredNone.
func (s LoadSlab) Scatter(states []trace.PredState) trace.Annotation {
	ann := make(trace.Annotation, s.Records)
	for i, r := range s.Recs {
		ann[r] = states[i]
	}
	return ann
}

// Slab runs the unit over a slab's memory-op stream in trace order: each
// run of loads between two stores goes to Unit.LoadBatch as sub-slices of
// the slab's lanes, and each store to Unit.Store. Records that are neither
// never reach the unit, so this is exactly RecordBatch over the slab's
// trace. Load i's state is written to states[i] (load order; len(states)
// must be at least s.Len()), so the walk itself allocates nothing.
func (a *Annotator) Slab(s LoadSlab, states []trace.PredState) {
	next := 0
	for k, at := range s.StoreAt {
		a.slabLoads(s, next, int(at), states)
		next = int(at)
		a.u.Store(s.StoreAddrs[k], int(s.StoreSizes[k]))
	}
	a.slabLoads(s, next, s.Len(), states)
}

// slabLoads hands loads [i, j) of the slab to Unit.LoadBatch.
func (a *Annotator) slabLoads(s LoadSlab, i, j int, states []trace.PredState) {
	if i < j {
		a.u.LoadBatch(s.PCs[i:j], s.Addrs[i:j], s.Values[i:j], states[i:j])
	}
}

// AnnotateSlab runs a fresh unit under cfg over the slab (see
// Annotator.Slab), writes every load's state into states in load order and
// returns the unit's statistics. tr attaches an event tracer (nil disables
// tracing); the events are Annotate's, in the same order.
func AnnotateSlab(s LoadSlab, cfg Config, tr *obs.Tracer, states []trace.PredState) (Stats, error) {
	a, err := NewAnnotator(cfg, tr)
	if err != nil {
		return Stats{}, err
	}
	a.Slab(s, states)
	return a.Stats(), nil
}
