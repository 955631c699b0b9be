package trace

import "io"

// Batched streaming. A per-record pull pipeline pays several dynamic
// dispatches per record. The batch layer amortizes them: record sources
// that can produce records in bulk implement NextBatch, and the annotated
// stream into the timing models moves whole slabs (SlabSource).
//
// Batches never change what flows through the pipeline — only how many
// records move per call. The NextBatch-vs-Next differentials in
// batch_test.go and the slab-contract property tests of the timing models
// pin that equivalence.

// BatchSource is a Source that can also deliver records in bulk. NextBatch
// fills buf with as many records as are available, up to len(buf), and
// returns the count; unlike Next's reused pointer, the filled records are
// the caller's to keep. It returns n > 0 with a nil error while records
// remain, and (0, io.EOF) once the stream is exhausted. A decode or
// execution error may follow n > 0 already-valid records.
type BatchSource interface {
	Source
	NextBatch(buf []Record) (int, error)
}

// SlabSource is the annotated record stream the timing models consume (the
// seam between phases 2 and 3 of the paper's framework, §5). NextSlab
// returns the next non-empty run of records and their parallel prediction
// states; the slices are owned by the source and valid only until the next
// call. Nil states mean no LVP hardware: every record is PredNone. It
// returns (nil, nil, io.EOF) once the stream is exhausted. An error is
// returned only after every record before it has been delivered, and is
// then returned again by every later call.
//
// Two types implement it: Trace.Slabs (the in-memory trace as one zero-copy
// span) and lvp.Pipe (a record source annotated in refills).
type SlabSource interface {
	NextSlab() ([]Record, []PredState, error)
}

// span is the in-memory SlabSource: the whole trace, then EOF.
type span struct {
	recs   []Record
	states []PredState
}

func (s *span) NextSlab() ([]Record, []PredState, error) {
	if len(s.recs) == 0 {
		return nil, nil, io.EOF
	}
	recs, states := s.recs, s.states
	s.recs, s.states = nil, nil
	return recs, states, nil
}

// Slabs returns t's records paired with ann as a SlabSource that hands over
// the whole trace as one zero-copy span. A nil ann models a machine without
// LVP hardware.
func (t *Trace) Slabs(ann Annotation) SlabSource {
	return &span{recs: t.Records, states: ann}
}
