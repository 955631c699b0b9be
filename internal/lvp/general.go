package lvp

import (
	"fmt"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

// AnnotateGeneral extends prediction from loads to every register-writing
// instruction — the most aggressive §7 direction ("speculating on values
// generated by instructions other than loads"). The unit reuses the LVPT
// (value history per instruction address) and LCT (per-PC classification);
// there is no CVU, because constant verification against memory is
// meaningful only for loads, so no instruction is annotated PredConstant.
//
// The returned annotation assigns a state to every register-writing record;
// non-writers stay PredNone. The ppc620 model accepts such annotations
// directly: predicted results are forwarded at dispatch and verified one
// cycle after execution, exactly like predicted loads.
func AnnotateGeneral(t *trace.Trace, cfg Config) (trace.Annotation, Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("annotating %s: %w", t.Name, err)
	}
	st := Stats{Config: cfg.Name + "/GVP"}
	ann := trace.NewAnnotation(t)
	var lvpt ValueTable
	var lct *LCT
	if !cfg.Perfect {
		lvpt, lct = newValueTable(cfg), NewLCT(cfg.LCTEntries, cfg.LCTBits)
	}
	for base, recs := range t.Batches() {
		for k := range recs {
			r := &recs[k]
			if in := r.Inst(); !isa.WritesGPR(in) && !isa.WritesFPR(in) {
				continue
			}
			st.Loads++
			state := trace.PredCorrect
			if !cfg.Perfect {
				state = predictGeneral(lvpt, lct, cfg.HistoryDepth, r, &st)
			}
			ann[base+k] = state
			st.States[state]++
		}
	}
	if !cfg.Perfect {
		st.LVPT, st.LCT = lvpt.Stats(), lct.Stats()
	}
	return ann, st, nil
}

// predictGeneral predicts, verifies and trains on one register-writing
// record, counts the outcome into st's identification totals and returns
// its state.
func predictGeneral(lvpt ValueTable, lct *LCT, depth int, r *trace.Record, st *Stats) trace.PredState {
	var correct bool
	if depth > 1 {
		correct = lvpt.Contains(r.PC, r.Value)
	} else {
		pred, _ := lvpt.Predict(r.PC)
		correct = pred == r.Value
	}
	state := trace.PredNone
	if lct.Classify(r.PC) != ClassNoPredict {
		// Predict and constant both predict; verification is always
		// against the computed result (no CVU here).
		state = trace.PredIncorrect
		if correct {
			state = trace.PredCorrect
		}
	}
	lct.Update(r.PC, correct)
	lvpt.Update(r.PC, r.Value)
	if correct {
		st.PredictableTotal++
		if state != trace.PredNone {
			st.PredictableIdentified++
		}
	} else {
		st.UnpredictableTotal++
		if state == trace.PredNone {
			st.UnpredictableIdentified++
		}
	}
	return state
}
