package trace

// Batched streaming. Every record source (the VM, the VLT1 Reader and the
// VLT2 IndexedReader) delivers records in bulk through NextBatch, so a
// pipeline pays its dynamic dispatches per batch rather than per record.
//
// Batches never change what flows through the pipeline — only how many
// records move per call. The batch-size checks in the tests (buffers of 1,
// 7 and 256 records against ReadAll or vm.Run) pin that equivalence.

// BatchSource is the one record pull interface. NextBatch fills buf with as
// many records as are available, up to len(buf), and returns the count; the
// filled records are the caller's to keep. It returns n > 0 with a nil error
// while records remain, and (0, io.EOF) once the stream is exhausted. A
// decode or execution error may follow n > 0 already-valid records.
type BatchSource interface {
	NextBatch(buf []Record) (int, error)
}
