package trace

import "errors"

// Batched streaming. Every record source (the VM, the VLT1 Reader and the
// VLT2 IndexedReader) delivers records in bulk through NextBatch, so a
// pipeline pays its dynamic dispatches per batch rather than per record, and
// the annotated stream into the timing models moves whole slabs
// (SlabSource).
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
// Two types implement it: Trace.Slabs (the compact in-memory trace expanded
// slab by slab) and lvp.Pipe (a record source annotated in refills).
type SlabSource interface {
	NextSlab() ([]Record, []PredState, error)
}

// ErrAnnotationLength reports an annotation whose length differs from its
// trace's record count.
var ErrAnnotationLength = errors.New("trace: annotation length differs from the trace")
