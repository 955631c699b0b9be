package trace

import (
	"encoding/binary"
	"io"
)

// Batched streaming. A per-record pull pipeline pays several dynamic
// dispatches per record, and the VLT1 Reader additionally pays an
// io.ByteReader interface call per varint *byte*. The batch layer amortizes
// all of that: record sources that can produce records in bulk implement
// NextBatch, and the annotated stream into the timing models moves whole
// slabs (SlabSource).
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

// maxEncodedRecord bounds one VLT1 record's encoding: a 6-byte fixed
// header, up to two 10-byte varints (pc delta, imm), and at most one of
// {size byte + addr + value uvarints, value uvarint [+ target uvarint]} —
// 47 bytes in the widest (memory) shape, padded to a round 64 for the
// Reader's peek window.
const maxEncodedRecord = 64

// NextBatch decodes up to len(buf) records: the batched form of Next.
// Decoding works directly on the bufio peek window with slice-based varint
// reads, which removes the per-byte io.ByteReader dispatch that dominates
// Next; records that sit too close to the window's edge (or fail any
// validation) fall back to Next itself, so error messages and acceptance
// are byte-identical to the record-at-a-time path.
func (r *Reader) NextBatch(buf []Record) (int, error) {
	n := 0
	for n < len(buf) {
		if r.read >= r.count {
			if n > 0 {
				return n, nil
			}
			return 0, io.EOF
		}
		p, _ := r.br.Peek(maxEncodedRecord)
		if used := r.decodeFast(p, &buf[n]); used > 0 {
			r.br.Discard(used)
			r.read++
			n++
			continue
		}
		// Slow path: near EOF, a record spanning the peek window, or
		// anything invalid. Next re-reads the same bytes and produces the
		// canonical result or error.
		rec, err := r.Next()
		if err != nil {
			return n, err
		}
		buf[n] = *rec
		n++
	}
	return n, nil
}

// decodeFast decodes one record from p into rec and returns the bytes
// consumed, or 0 if p does not contain one complete, valid record (the
// caller then retries through the validating slow path, so "0" never skips
// input). It must accept exactly the records Next accepts; any doubt —
// unknown flags, flag/opcode disagreement, varint overflow, truncation —
// returns 0.
func (r *Reader) decodeFast(p []byte, rec *Record) int {
	if len(p) < 6 {
		return 0
	}
	flags := p[0]
	if flags&^(flagMem|flagTaken|flagTarg|flagVal) != 0 {
		return 0
	}
	*rec = Record{}
	rec.Op = isaOp(p[1])
	rec.Rd, rec.Ra, rec.Rb = isaReg(p[2]), isaReg(p[3]), isaReg(p[4])
	rec.Class = isaLoadClass(p[5])
	if mem := rec.IsLoad() || rec.IsStore(); (flags&flagMem != 0) != mem {
		return 0
	}
	if (flags&flagTarg != 0) != rec.IsBranch() {
		return 0
	}
	if flags&flagVal != 0 && flags&flagMem != 0 {
		return 0
	}
	off := 6
	dpc, k := binary.Varint(p[off:])
	if k <= 0 {
		return 0
	}
	off += k
	rec.Imm, k = binary.Varint(p[off:])
	if k <= 0 {
		return 0
	}
	off += k
	rec.Taken = flags&flagTaken != 0
	if flags&flagMem != 0 {
		if off >= len(p) {
			return 0
		}
		rec.Size = p[off]
		off++
		rec.Addr, k = binary.Uvarint(p[off:])
		if k <= 0 {
			return 0
		}
		off += k
		rec.Value, k = binary.Uvarint(p[off:])
		if k <= 0 {
			return 0
		}
		off += k
	}
	if flags&flagVal != 0 {
		rec.Value, k = binary.Uvarint(p[off:])
		if k <= 0 {
			return 0
		}
		off += k
	}
	if flags&flagTarg != 0 {
		rec.Targ, k = binary.Uvarint(p[off:])
		if k <= 0 {
			return 0
		}
		off += k
	}
	rec.PC = r.prevPC + uint64(dpc)
	r.prevPC = rec.PC
	return off
}
