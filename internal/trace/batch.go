package trace

import (
	"errors"
	"fmt"
	"io"
)

// Batched streaming. Every record source (the VM, the in-memory slice
// source, the VLT1 Reader and the VLT2 IndexedReader) delivers records in
// bulk through NextBatch, so a pipeline pays its dynamic dispatches per
// batch rather than per record, and the annotated stream into the timing
// models moves whole slabs (SlabSource).
//
// Batches never change what flows through the pipeline — only how many
// records move per call. The batch-size checks in the tests (buffers of 1,
// 7 and 256 records against ReadAll or vm.Run) and the slab-contract
// property tests of the timing models pin that equivalence.

// BatchSource is the one record pull interface. NextBatch fills buf with as
// many records as are available, up to len(buf), and returns the count; the
// filled records are the caller's to keep. It returns n > 0 with a nil error
// while records remain, and (0, io.EOF) once the stream is exhausted. A
// decode or execution error may follow n > 0 already-valid records.
type BatchSource interface {
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

// ErrAnnotationLength reports an annotation whose length differs from its
// trace's record count.
var ErrAnnotationLength = errors.New("trace: annotation length differs from the trace")

// span is the in-memory SlabSource: the whole trace, then EOF, or err on
// every call when the annotation does not fit the trace.
type span struct {
	recs   []Record
	states []PredState
	err    error
}

func (s *span) NextSlab() ([]Record, []PredState, error) {
	if s.err != nil {
		return nil, nil, s.err
	}
	if len(s.recs) == 0 {
		return nil, nil, io.EOF
	}
	recs, states := s.recs, s.states
	s.recs, s.states = nil, nil
	return recs, states, nil
}

// Slabs returns t's records paired with ann as a SlabSource that hands over
// the whole trace as one zero-copy span. A nil ann models a machine without
// LVP hardware; a non-nil ann whose length is not len(t.Records) makes every
// NextSlab fail with ErrAnnotationLength.
func (t *Trace) Slabs(ann Annotation) SlabSource {
	if ann != nil && len(ann) != len(t.Records) {
		return &span{err: fmt.Errorf("%w: %d states for %d records", ErrAnnotationLength, len(ann), len(t.Records))}
	}
	return &span{recs: t.Records, states: ann}
}
