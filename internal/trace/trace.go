// Package trace defines the dynamic instruction trace that flows between the
// three phases of the experimental framework (paper §5): the functional VM
// produces a trace, the LVP Unit model annotates its loads with prediction
// states, and the cycle-accurate timing models consume the annotated trace.
package trace

import (
	"errors"
	"fmt"

	"lvp/internal/isa"
)

// Record is one retired dynamic instruction.
type Record struct {
	PC    uint64 // instruction address
	Addr  uint64 // effective address (loads/stores), else 0
	Value uint64 // loaded value (loads) or stored value (stores), raw bits
	Imm   int64  // immediate as executed (branch targets resolved)
	Op    isa.Op
	Rd    isa.Reg
	Ra    isa.Reg
	Rb    isa.Reg
	Class isa.LoadClass // static load class (loads only)
	Size  uint8         // access width in bytes (loads/stores)
	Taken bool          // branch outcome (branches only; unconditional = true)
	Targ  uint64        // actual next PC for branches (taken or fallthrough)
}

// Inst reconstructs the static instruction that produced r.
func (r Record) Inst() isa.Inst {
	return isa.Inst{Op: r.Op, Rd: r.Rd, Ra: r.Ra, Rb: r.Rb, Imm: r.Imm, Class: r.Class}
}

// IsLoad reports whether the record is a load.
func (r Record) IsLoad() bool { return isa.IsLoad(r.Op) }

// IsStore reports whether the record is a store.
func (r Record) IsStore() bool { return isa.IsStore(r.Op) }

// IsBranch reports whether the record is a control-transfer instruction.
func (r Record) IsBranch() bool { return isa.IsBranch(r.Op) }

// Summary aggregates the counts the paper's Table 1 reports per benchmark.
type Summary struct {
	Name         string
	Target       string
	Instructions int
	Loads        int
	Stores       int
	Branches     int
	CondBranches int
	TakenRate    float64 // fraction of conditional branches taken
	LoadsByClass [isa.NumLoadClasses]int
}

// Summarize scans the trace once and returns its Summary.
func (t *Trace) Summarize() Summary {
	z, w := NewSummarizer(t.Name, t.Target), t.Walk()
	var r Record
	for range t.n {
		w.Next()
		w.Branch(&r) // the row and Taken bit, all Add reads
		z.Add(&r)
	}
	return z.Summary()
}

// Summarizer accumulates a Summary record-at-a-time — the streaming
// counterpart of Trace.Summarize, for summarising traces that are never
// materialized in memory.
type Summarizer struct {
	s     Summary
	taken int
}

// NewSummarizer returns a Summarizer for a trace with the given header.
func NewSummarizer(name, target string) *Summarizer {
	return &Summarizer{s: Summary{Name: name, Target: target}}
}

// Add accumulates one record.
func (z *Summarizer) Add(r *Record) {
	z.s.Instructions++
	switch {
	case r.IsLoad():
		z.s.Loads++
		z.s.LoadsByClass[r.Class]++
	case r.IsStore():
		z.s.Stores++
	case r.IsBranch():
		z.s.Branches++
		if isa.IsCondBranch(r.Op) {
			z.s.CondBranches++
			if r.Taken {
				z.taken++
			}
		}
	}
}

// Summary returns the accumulated summary.
func (z *Summarizer) Summary() Summary {
	s := z.s
	if s.CondBranches > 0 {
		s.TakenRate = float64(z.taken) / float64(s.CondBranches)
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("%s/%s: %d instrs, %d loads (%.1f%%), %d stores, %d branches",
		s.Name, s.Target, s.Instructions, s.Loads,
		100*float64(s.Loads)/float64(max(1, s.Instructions)), s.Stores, s.Branches)
}

// PredState is the per-load annotation produced by the LVP Unit model
// (paper §5): each load is marked with exactly one of four states.
type PredState uint8

const (
	// PredNone: the LCT said "don't predict" (or the machine model
	// cancelled the prediction).
	PredNone PredState = iota
	// PredIncorrect: a prediction was made and it was wrong.
	PredIncorrect
	// PredCorrect: a prediction was made and it was right; verified
	// against the value returned by the memory hierarchy.
	PredCorrect
	// PredConstant: a correct prediction verified by the CVU without
	// accessing the memory hierarchy at all.
	PredConstant

	NumPredStates
)

func (p PredState) String() string {
	switch p {
	case PredNone:
		return "no-pred"
	case PredIncorrect:
		return "incorrect"
	case PredCorrect:
		return "correct"
	case PredConstant:
		return "constant"
	}
	return fmt.Sprintf("PredState(%d)", uint8(p))
}

// Annotation carries one PredState per trace record. Non-load records hold
// PredNone. It is stored separately from the Trace so one trace can be
// annotated under many LVP configurations without copying (and, as in the
// paper, so only two bits of state per load cross into the timing models).
type Annotation []PredState

// NewAnnotation allocates an all-PredNone annotation sized for t.
func NewAnnotation(t *Trace) Annotation {
	return make(Annotation, t.Len())
}

// ErrAnnotationLength reports an annotation whose length differs from its
// trace's record count.
var ErrAnnotationLength = errors.New("trace: annotation length differs from the trace")

// CheckAnnotation reports whether ann fits t: nil (no LVP hardware) or one
// state per record. Otherwise it returns an error wrapping
// ErrAnnotationLength.
func (t *Trace) CheckAnnotation(ann Annotation) error {
	if ann != nil && len(ann) != t.Len() {
		return fmt.Errorf("%w: %d states for %d records", ErrAnnotationLength, len(ann), t.Len())
	}
	return nil
}
