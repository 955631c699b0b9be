package lvp

import (
	"fmt"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

// AnnotateGeneral extends prediction from loads to every register-writing
// instruction — the most aggressive §7 direction ("speculating on values
// generated by instructions other than loads"). It runs the LVP Unit with
// its LVPT (value history per instruction address) and LCT (per-PC
// classification) and without a CVU, because constant verification against
// memory is meaningful only for loads, so no instruction is annotated
// PredConstant.
//
// The returned annotation assigns a state to every register-writing record;
// non-writers stay PredNone. The ppc620 model accepts such annotations
// directly: predicted results are forwarded at dispatch and verified one
// cycle after execution, exactly like predicted loads.
func AnnotateGeneral(t *trace.Trace, cfg Config) (trace.Annotation, Stats, error) {
	cfg.CVUEntries = 0
	u, err := NewUnit(cfg)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("annotating %s: %w", t.Name, err)
	}
	writes := make([]bool, len(t.Static()))
	for j, s := range t.Static() {
		in := s.Inst()
		writes[j] = isa.WritesGPR(in) || isa.WritesFPR(in)
	}
	ann := trace.NewAnnotation(t)
	w := t.Walk()
	for i := range ann {
		row := w.Next()
		if v := w.Value(); writes[row] {
			ann[i] = u.Load(t.Static()[row].PC, 0, v)
		}
	}
	st := u.Stats()
	st.Config = cfg.Name + "/GVP"
	return ann, st, nil
}
