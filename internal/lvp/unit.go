package lvp

import (
	"fmt"
	"log/slog"

	"lvp/internal/obs"
	"lvp/internal/trace"
)

// Stats aggregates everything the paper reports about the LVP Unit itself:
// the distribution of prediction states, the LCT classification accuracy
// (Table 3), and the constant identification rate (Table 4).
type Stats struct {
	Config string
	Loads  int
	States [trace.NumPredStates]int

	// Table 3 numerators/denominators. A load is "predictable" when the
	// LVPT's prediction for it would have been correct, regardless of
	// what the LCT decided.
	PredictableTotal        int
	PredictableIdentified   int // ... and the LCT said predict/constant
	UnpredictableTotal      int
	UnpredictableIdentified int // ... and the LCT said don't-predict

	CVUInserts            int
	CVUStoreInvalidations int
	CVUIndexInvalidations int
	// CoherenceViolations counts CVU hits whose prediction was wrong.
	// The invalidate-on-update discipline keeps this at zero; it exists
	// as a checked invariant.
	CoherenceViolations int

	// Per-structure event counters (observability; not paper exhibits).
	LVPT LVPTStats
	LCT  LCTStats
	CVU  CVUStats
}

// ConstantRate is paper Table 4: the fraction of all dynamic loads verified
// as constants by the CVU (equivalently, the L1 bandwidth reduction).
func (s Stats) ConstantRate() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.States[trace.PredConstant]) / float64(s.Loads)
}

// UnpredictableIdentifiedRate is paper Table 3's "% of unpredictable loads
// identified as such by the LCT".
func (s Stats) UnpredictableIdentifiedRate() float64 {
	if s.UnpredictableTotal == 0 {
		return 1
	}
	return float64(s.UnpredictableIdentified) / float64(s.UnpredictableTotal)
}

// PredictableIdentifiedRate is paper Table 3's "% of predictable loads
// correctly classified as predictable".
func (s Stats) PredictableIdentifiedRate() float64 {
	if s.PredictableTotal == 0 {
		return 1
	}
	return float64(s.PredictableIdentified) / float64(s.PredictableTotal)
}

// Accuracy is the fraction of attempted predictions that were correct
// (correct + constant over all predicted loads).
func (s Stats) Accuracy() float64 {
	attempted := s.States[trace.PredCorrect] + s.States[trace.PredConstant] + s.States[trace.PredIncorrect]
	if attempted == 0 {
		return 0
	}
	return float64(s.States[trace.PredCorrect]+s.States[trace.PredConstant]) / float64(attempted)
}

// Coverage is the fraction of all loads predicted correctly (correct +
// constant over all loads).
func (s Stats) Coverage() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.States[trace.PredCorrect]+s.States[trace.PredConstant]) / float64(s.Loads)
}

// Unit is a complete LVP Unit instance. The value table is any ValueTable
// organisation (untagged direct-mapped by default; Config.LVPTStyle selects
// the tagged or set-associative variants). A unit built with CVUEntries 0
// has no CVU: loads the LCT classifies constant are verified against the
// value like predicted ones.
type Unit struct {
	cfg   Config
	lvpt  ValueTable
	lct   *LCT
	cvu   *CVU // nil without a CVU
	tr    *obs.Tracer
	stats Stats
	// Gather scratch: RecordBatch copies loads, and Slab decodes them, into
	// these parallel slices so LoadBatch runs over plain arrays. They grow
	// to the longest run seen and are then reused.
	pcs, addrs, vals []uint64
}

// NewUnit builds a unit for the given configuration.
func NewUnit(cfg Config) (*Unit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	u := &Unit{cfg: cfg, stats: Stats{Config: cfg.Name}, pcs: make([]uint64, 0, slabPCs), addrs: make([]uint64, 0, slabPCs), vals: make([]uint64, 0, slabPCs)}
	if !cfg.Perfect {
		u.lvpt = newValueTable(cfg)
		u.lct = NewLCT(cfg.LCTEntries, cfg.LCTBits)
		if cfg.CVUEntries > 0 {
			u.cvu = NewCVU(cfg.CVUEntries)
		}
	}
	return u, nil
}

// SetTracer attaches an event tracer; nil (the default) disables tracing.
// The unit emits on the lvpt, lct and cvu channels.
func (u *Unit) SetTracer(tr *obs.Tracer) { u.tr = tr }

// Stats returns the accumulated statistics, including the per-structure
// event counters.
func (u *Unit) Stats() Stats {
	st := u.stats
	if u.lvpt != nil {
		st.LVPT = u.lvpt.Stats()
	}
	if u.lct != nil {
		st.LCT = u.lct.Stats()
	}
	if u.cvu != nil {
		st.CVU = u.cvu.Stats()
	}
	return st
}

// Store processes a store instruction: the CVU CAM is searched and all
// entries matching the store's footprint are invalidated (paper §3.4).
func (u *Unit) Store(addr uint64, size int) {
	if u.cvu != nil {
		removed := u.cvu.InvalidateAddr(addr, size)
		u.stats.CVUStoreInvalidations += removed
		if removed > 0 && u.tr.Enabled(obs.ChanCVU) {
			u.tr.Emit(obs.ChanCVU, "store-invalidate",
				slog.String("addr", fmt.Sprintf("%#x", addr)),
				slog.Int("size", size),
				slog.Int("removed", removed))
		}
	}
}

// Load processes one dynamic load: it forms the prediction, classifies it,
// attempts CVU verification for constants, updates the tables, and returns
// the paper's four-state annotation.
func (u *Unit) Load(pc, addr, actual uint64) trace.PredState {
	u.stats.Loads++
	if u.cfg.Perfect {
		u.stats.States[trace.PredCorrect]++
		u.stats.PredictableTotal++
		u.stats.PredictableIdentified++
		return trace.PredCorrect
	}
	idx := u.lvpt.Index(pc)
	var correct bool
	var predicted uint64
	if u.cfg.HistoryDepth > 1 {
		// Perfect selection oracle over the history set (paper §3.1).
		correct = u.lvpt.Contains(pc, actual)
	} else {
		predicted, _ = u.lvpt.Predict(pc) // cold entries predict zero
		correct = predicted == actual
	}
	class := u.lct.Classify(pc)

	var state trace.PredState
	switch class {
	case ClassNoPredict:
		state = trace.PredNone
	case ClassPredict:
		if correct {
			state = trace.PredCorrect
		} else {
			state = trace.PredIncorrect
		}
	case ClassConstant:
		hit := u.cvu != nil && u.cvu.Lookup(addr, idx)
		switch {
		case hit && correct:
			state = trace.PredConstant
			if u.tr.Enabled(obs.ChanCVU) {
				u.tr.Emit(obs.ChanCVU, "hit",
					slog.String("pc", fmt.Sprintf("%#x", pc)),
					slog.String("addr", fmt.Sprintf("%#x", addr)),
					slog.Int("index", idx))
			}
		case hit:
			// A CVU hit vouching for a wrong value would be a
			// hardware bug; the invalidation discipline prevents
			// it, and we count it to prove that.
			u.stats.CoherenceViolations++
			state = trace.PredIncorrect
		case correct:
			// Demoted to predictable this time (paper §3.3); the
			// now-verified pair enters the CVU for next time.
			state = trace.PredCorrect
			if u.cvu == nil {
				break
			}
			u.cvu.Insert(addr, idx)
			u.stats.CVUInserts++
			if u.tr.Enabled(obs.ChanCVU) {
				u.tr.Emit(obs.ChanCVU, "insert",
					slog.String("pc", fmt.Sprintf("%#x", pc)),
					slog.String("addr", fmt.Sprintf("%#x", addr)),
					slog.Int("index", idx))
			}
		default:
			state = trace.PredIncorrect
		}
	}

	var lctBefore uint8
	traceLCT := u.tr.Enabled(obs.ChanLCT)
	if traceLCT {
		lctBefore = u.lct.Counter(pc)
	}
	u.lct.Update(pc, correct)
	if traceLCT {
		if after := u.lct.Counter(pc); after != lctBefore {
			u.tr.Emit(obs.ChanLCT, "transition",
				slog.String("pc", fmt.Sprintf("%#x", pc)),
				slog.Int("from", int(lctBefore)),
				slog.Int("to", int(after)),
				slog.String("class", u.lct.classOf(after).String()))
		}
	}
	if changed := u.lvpt.Update(pc, actual); changed && u.cvu != nil {
		removed := u.cvu.InvalidateIndex(idx)
		u.stats.CVUIndexInvalidations += removed
		if removed > 0 && u.tr.Enabled(obs.ChanCVU) {
			u.tr.Emit(obs.ChanCVU, "index-invalidate",
				slog.Int("index", idx),
				slog.Int("removed", removed))
		}
	}
	if u.tr.Enabled(obs.ChanLVPT) {
		attrs := []slog.Attr{
			slog.String("pc", fmt.Sprintf("%#x", pc)),
			slog.String("addr", fmt.Sprintf("%#x", addr)),
			slog.String("actual", fmt.Sprintf("%#x", actual)),
			slog.Bool("correct", correct),
			slog.String("class", class.String()),
			slog.String("state", state.String()),
		}
		if u.cfg.HistoryDepth == 1 {
			attrs = append(attrs, slog.String("predicted", fmt.Sprintf("%#x", predicted)))
		}
		u.tr.Emit(obs.ChanLVPT, "load", attrs...)
	}

	u.stats.States[state]++
	if correct {
		u.stats.PredictableTotal++
		if class != ClassNoPredict {
			u.stats.PredictableIdentified++
		}
	} else {
		u.stats.UnpredictableTotal++
		if class == ClassNoPredict {
			u.stats.UnpredictableIdentified++
		}
	}
	return state
}

// LoadBatch processes a run of dynamic loads given as parallel slices —
// pcs[i], addrs[i] and actuals[i] describe load i — writing each load's
// four-state annotation into states[i]. It is decision-for-decision and
// counter-for-counter equivalent to len(pcs) sequential Load calls; the
// batched form exists so the hot annotation loop reads the unit's tables
// directly (the LVPT's history through its inlined index accessors, the
// LCT counters) instead of re-entering the interface and method chain per
// load. len(addrs), len(actuals) and
// len(states) must be at least len(pcs).
func (u *Unit) LoadBatch(pcs, addrs, actuals []uint64, states []trace.PredState) {
	n := len(pcs)
	if u.cfg.Perfect {
		u.stats.Loads += n
		u.stats.States[trace.PredCorrect] += n
		u.stats.PredictableTotal += n
		u.stats.PredictableIdentified += n
		for i := range states[:n] {
			states[i] = trace.PredCorrect
		}
		return
	}
	// The direct path covers the paper's baseline organisation — untagged
	// direct-mapped LVPT at history depth one — with tracing off on every
	// channel the per-load path could emit on. Anything else (deep
	// histories, tagged/assoc tables, attached tracers) falls back to the
	// reference per-load path.
	if t, ok := u.lvpt.(*LVPT); ok && t.h.Depth() == 1 &&
		!u.tr.Enabled(obs.ChanLVPT) && !u.tr.Enabled(obs.ChanLCT) && !u.tr.Enabled(obs.ChanCVU) {
		u.loadBatchDirect(t, pcs[:n], addrs, actuals, states)
		return
	}
	for i := 0; i < n; i++ {
		states[i] = u.Load(pcs[i], addrs[i], actuals[i])
	}
}

// loadBatchDirect is Load's logic unrolled over the depth-1 untagged LVPT,
// reading and writing its history table through the index accessors
// (Len/Head/SetHead) instead of the general MRU search. Counter-update
// order differs from the per-load path only within a single load (all
// counters are simple sums), and every decision — classification, CVU
// lookup/insert/invalidate, state selection — is identical;
// TestLoadBatchMatchesLoad pins that equivalence.
func (u *Unit) loadBatchDirect(t *LVPT, pcs, addrs, actuals []uint64, states []trace.PredState) {
	h := &t.h
	l := u.lct
	cvu := u.cvu
	st := &u.stats
	st.Loads += len(pcs)
	for i := range pcs {
		pc, actual := pcs[i], actuals[i]
		idx := h.Index(pc)
		t.stats.Lookups++
		warm := h.Len(idx) != 0
		if warm {
			t.stats.Hits++
		}
		// A cold entry's head is zero, exactly what Predict reports for
		// it, so the comparison needs no warm/cold branch.
		correct := h.Head(idx) == actual
		li := l.index(pc)
		c := l.counters[li]
		class := l.classTab[c]
		l.stats.Lookups++

		var state trace.PredState
		switch class {
		case ClassNoPredict:
			state = trace.PredNone
		case ClassPredict:
			if correct {
				state = trace.PredCorrect
			} else {
				state = trace.PredIncorrect
			}
		case ClassConstant:
			// The CVU seam is the per-load one: Lookup, then Insert on
			// the verified-correct miss (paper §3.3).
			hit := cvu != nil && cvu.Lookup(addrs[i], idx)
			switch {
			case hit && correct:
				state = trace.PredConstant
			case hit:
				st.CoherenceViolations++
				state = trace.PredIncorrect
			case correct:
				state = trace.PredCorrect
				if cvu != nil {
					cvu.Insert(addrs[i], idx)
					st.CVUInserts++
				}
			default:
				state = trace.PredIncorrect
			}
		}

		// LCT update (saturating), with the transition recorded through
		// the precomputed class table.
		nc := c
		if correct {
			if c < l.max {
				nc = c + 1
			}
		} else if c > 0 {
			nc = c - 1
		}
		l.counters[li] = nc
		l.stats.Updates++
		l.stats.Transitions[class][l.classTab[nc]]++

		// LVPT update at depth one. A cold entry always changes when it
		// takes its first value — even a zero, which the comparison alone
		// would miss — and a warm one changes only when displaced; either
		// change invalidates the CVU entries vouching for this index.
		t.stats.Updates++
		if !warm || !correct {
			if warm {
				t.stats.Replacements++
			}
			h.SetHead(idx, actual)
			if cvu != nil {
				st.CVUIndexInvalidations += cvu.InvalidateIndex(idx)
			}
		}

		st.States[state]++
		if correct {
			st.PredictableTotal++
			if class != ClassNoPredict {
				st.PredictableIdentified++
			}
		} else {
			st.UnpredictableTotal++
			if class == ClassNoPredict {
				st.UnpredictableIdentified++
			}
		}
		states[i] = state
	}
}

// Annotate runs the LVP Unit over a trace (phase 2 of the paper's
// experimental framework, §5) and returns the per-record prediction states
// plus unit statistics.
func Annotate(t *trace.Trace, cfg Config) (trace.Annotation, Stats, error) {
	return AnnotateTraced(t, cfg, nil)
}

// AnnotateTraced is Annotate with an event tracer attached to the unit
// (lvpt, lct and cvu channels); tr == nil is exactly Annotate. Tracing never
// changes the annotation or the statistics, only what is emitted. It is the
// materialized form of the streaming Unit.RecordBatch: the per-record path
// is the same code either way, and the record-walk reference for the
// suite's walk of the memory-op lanes (Unit.Slab).
func AnnotateTraced(t *trace.Trace, cfg Config, tr *obs.Tracer) (trace.Annotation, Stats, error) {
	u, err := NewUnit(cfg)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("annotating %s: %w", t.Name, err)
	}
	u.SetTracer(tr)
	ann := trace.NewAnnotation(t)
	for base, recs := range t.Batches() {
		u.RecordBatch(recs, ann[base:base+len(recs)])
	}
	return ann, u.Stats(), nil
}
