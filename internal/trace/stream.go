package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Streaming record-at-a-time access to the VLT1 format. The Reader/Writer
// pair is the primitive layer: the whole-trace Read/Write API in codec.go is
// implemented on top of it, so there is exactly one encoder and one decoder.
//
// The hot path is allocation-free after construction: Reader.Next decodes
// into an internal reused Record, and Writer.WriteRecord encodes through an
// internal scratch buffer into a bufio.Writer. Callers that retain records
// across Next calls must copy them.

// Source yields the records of a dynamic instruction trace in program
// order. Next returns io.EOF after the final record. The returned pointer
// is only valid until the next call to Next.
type Source interface {
	Next() (*Record, error)
}

// sliceSource streams an in-memory trace.
type sliceSource struct {
	t *Trace
	i int
}

func (s *sliceSource) Next() (*Record, error) {
	if s.i >= len(s.t.Records) {
		return nil, io.EOF
	}
	r := &s.t.Records[s.i]
	s.i++
	return r, nil
}

func (s *sliceSource) NextBatch(buf []Record) (int, error) {
	if s.i >= len(s.t.Records) {
		return 0, io.EOF
	}
	n := copy(buf, s.t.Records[s.i:])
	s.i += n
	return n, nil
}

// Stream returns a BatchSource yielding t's records in order.
func (t *Trace) Stream() BatchSource { return &sliceSource{t: t} }

// Reader decodes a VLT1 stream record-at-a-time. The header (name, target,
// count) is read at construction; Next then yields each record without
// per-record allocation, validating exactly as the whole-trace Read does.
type Reader struct {
	br     *bufio.Reader
	name   string
	target string
	count  uint64
	read   uint64
	prevPC uint64
	rec    Record
	hdr    [6]byte
}

// NewReader reads and validates the VLT1 header from r and returns a
// streaming Reader positioned at the first record.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return nil, ErrBadMagic
	}
	sr := &Reader{br: br}
	var err error
	if sr.name, err = readString(br); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	if sr.target, err = readString(br); err != nil {
		return nil, fmt.Errorf("trace: reading target: %w", err)
	}
	if sr.count, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	const maxReasonable = 1 << 32
	if sr.count > maxReasonable {
		return nil, fmt.Errorf("trace: implausible record count %d", sr.count)
	}
	return sr, nil
}

// Name returns the trace's benchmark name from the header.
func (r *Reader) Name() string { return r.name }

// Target returns the trace's codegen target from the header.
func (r *Reader) Target() string { return r.target }

// Count returns the header's record count.
func (r *Reader) Count() uint64 { return r.count }

// Decoded returns the number of records decoded so far.
func (r *Reader) Decoded() uint64 { return r.read }

// Next decodes the next record into the Reader's internal record and
// returns it; io.EOF after the final record. The pointer is invalidated by
// the following Next call. Validation matches Read: unknown flag bits,
// flag/opcode inconsistencies and truncation all fail with an error naming
// the record index.
func (r *Reader) Next() (*Record, error) {
	if r.read >= r.count {
		return nil, io.EOF
	}
	i := r.read
	rec := &r.rec
	*rec = Record{}
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: record %d header: %w", i, err)
	}
	flags := r.hdr[0]
	if flags&^(flagMem|flagTaken|flagTarg|flagVal) != 0 {
		return nil, fmt.Errorf("trace: record %d: unknown flag bits %#02x", i, flags)
	}
	rec.Op = isaOp(r.hdr[1])
	rec.Rd, rec.Ra, rec.Rb = isaReg(r.hdr[2]), isaReg(r.hdr[3]), isaReg(r.hdr[4])
	rec.Class = isaLoadClass(r.hdr[5])
	// The flag byte is redundant with the opcode; reject records where
	// they disagree so every decoded trace is canonical (and re-encodes
	// to the same semantic records).
	if mem := rec.IsLoad() || rec.IsStore(); (flags&flagMem != 0) != mem {
		return nil, fmt.Errorf("trace: record %d: mem flag inconsistent with opcode %v", i, rec.Op)
	}
	if (flags&flagTarg != 0) != rec.IsBranch() {
		return nil, fmt.Errorf("trace: record %d: branch-target flag inconsistent with opcode %v", i, rec.Op)
	}
	if flags&flagVal != 0 && flags&flagMem != 0 {
		return nil, fmt.Errorf("trace: record %d: value flag on a memory record", i)
	}
	dpc, err := binary.ReadVarint(r.br)
	if err != nil {
		return nil, fmt.Errorf("trace: record %d pc: %w", i, err)
	}
	rec.PC = r.prevPC + uint64(dpc)
	r.prevPC = rec.PC
	if rec.Imm, err = binary.ReadVarint(r.br); err != nil {
		return nil, fmt.Errorf("trace: record %d imm: %w", i, err)
	}
	rec.Taken = flags&flagTaken != 0
	if flags&flagMem != 0 {
		sz, err := r.br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d size: %w", i, err)
		}
		rec.Size = sz
		if rec.Addr, err = binary.ReadUvarint(r.br); err != nil {
			return nil, fmt.Errorf("trace: record %d addr: %w", i, err)
		}
		if rec.Value, err = binary.ReadUvarint(r.br); err != nil {
			return nil, fmt.Errorf("trace: record %d value: %w", i, err)
		}
	}
	if flags&flagVal != 0 {
		if rec.Value, err = binary.ReadUvarint(r.br); err != nil {
			return nil, fmt.Errorf("trace: record %d result value: %w", i, err)
		}
	}
	if flags&flagTarg != 0 {
		if rec.Targ, err = binary.ReadUvarint(r.br); err != nil {
			return nil, fmt.Errorf("trace: record %d target: %w", i, err)
		}
	}
	r.read++
	return rec, nil
}

// countFieldWidth is the reserved width of the record-count varint when the
// count is not known up front: a maximally-padded uvarint (continuation bit
// set on the first nine bytes) that any varint decoder reads back as the
// same value, so streamed files stay readable by every VLT1 reader.
const countFieldWidth = binary.MaxVarintLen64

// putPaddedUvarint encodes v as exactly countFieldWidth bytes.
func putPaddedUvarint(buf []byte, v uint64) {
	for i := 0; i < countFieldWidth-1; i++ {
		buf[i] = byte(v&0x7f) | 0x80
		v >>= 7
	}
	buf[countFieldWidth-1] = byte(v)
}

// ErrNotSeekable reports a streaming Writer whose record count was unknown
// up front and whose underlying writer supports neither io.WriterAt nor
// io.WriteSeeker, so the count field cannot be backpatched at Close.
var ErrNotSeekable = errors.New("trace: cannot backpatch record count (writer is not seekable; use NewWriterCount)")

// ErrCountMismatch reports a Writer closed after writing a different number
// of records than NewWriterCount promised.
var ErrCountMismatch = errors.New("trace: record count mismatch at Close")

// Writer encodes a VLT1 stream record-at-a-time, flushing in chunks, so a
// trace of any length is written in constant memory.
//
// The VLT1 header carries the record count before the records. When the
// count is known up front (NewWriterCount) it is encoded minimally and the
// output is byte-identical to Write. When it is not (NewWriter), a
// fixed-width padded varint is reserved and backpatched on Close, which
// requires the underlying writer to support io.WriterAt or io.WriteSeeker
// (an *os.File does).
type Writer struct {
	w      io.Writer
	bw     *bufio.Writer
	prevPC uint64
	n      uint64

	headerLen int    // bytes before the count field
	preset    uint64 // promised count (hasPreset)
	hasPreset bool

	buf  [binary.MaxVarintLen64]byte
	err  error // sticky
	done bool
}

// NewWriter returns a streaming Writer with an unknown record count; Close
// backpatches the count, so w must be an io.WriterAt or io.WriteSeeker.
func NewWriter(w io.Writer, name, target string) (*Writer, error) {
	return newWriter(w, name, target, 0, false)
}

// NewWriterCount returns a streaming Writer for a trace whose record count
// is known up front. The output is byte-identical to Write on the same
// records; Close fails with ErrCountMismatch if a different number of
// records was written.
func NewWriterCount(w io.Writer, name, target string, count uint64) (*Writer, error) {
	return newWriter(w, name, target, count, true)
}

func newWriter(w io.Writer, name, target string, count uint64, hasCount bool) (*Writer, error) {
	sw := &Writer{
		w:         w,
		bw:        bufio.NewWriterSize(w, 1<<16),
		preset:    count,
		hasPreset: hasCount,
	}
	if _, err := sw.bw.WriteString(magic); err != nil {
		return nil, err
	}
	writeString(sw.bw, name)
	writeString(sw.bw, target)
	sw.headerLen = len(magic) + uvarintLen(uint64(len(name))) + len(name) +
		uvarintLen(uint64(len(target))) + len(target)
	if hasCount {
		writeUvarint(sw.bw, count)
	} else {
		putPaddedUvarint(sw.buf[:countFieldWidth], 0)
		sw.bw.Write(sw.buf[:countFieldWidth])
	}
	if _, err := sw.bw.Write(nil); err != nil {
		return nil, err
	}
	return sw, nil
}

// uvarintLen is the encoded size of v as a minimal uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.n }

// WriteRecord appends one record to the stream. It is allocation-free; the
// first error is sticky and returned by every later call.
func (w *Writer) WriteRecord(r *Record) error {
	if w.err != nil {
		return w.err
	}
	bw := w.bw
	var flags byte
	if r.IsLoad() || r.IsStore() {
		flags |= flagMem
	} else if r.Value != 0 {
		flags |= flagVal
	}
	if r.Taken {
		flags |= flagTaken
	}
	if r.IsBranch() {
		flags |= flagTarg
	}
	bw.WriteByte(flags)
	bw.WriteByte(byte(r.Op))
	bw.WriteByte(byte(r.Rd))
	bw.WriteByte(byte(r.Ra))
	bw.WriteByte(byte(r.Rb))
	bw.WriteByte(byte(r.Class))
	n := binary.PutVarint(w.buf[:], int64(r.PC-w.prevPC))
	bw.Write(w.buf[:n])
	w.prevPC = r.PC
	n = binary.PutVarint(w.buf[:], r.Imm)
	bw.Write(w.buf[:n])
	if flags&flagMem != 0 {
		bw.WriteByte(r.Size)
		n = binary.PutUvarint(w.buf[:], r.Addr)
		bw.Write(w.buf[:n])
		n = binary.PutUvarint(w.buf[:], r.Value)
		bw.Write(w.buf[:n])
	}
	if flags&flagVal != 0 {
		n = binary.PutUvarint(w.buf[:], r.Value)
		bw.Write(w.buf[:n])
	}
	if flags&flagTarg != 0 {
		n = binary.PutUvarint(w.buf[:], r.Targ)
		bw.Write(w.buf[:n])
	}
	w.n++
	// bufio flushes full chunks on its own and its error is sticky; an
	// empty Write surfaces that error without forcing a flush, so a failed
	// underlying writer is reported on the record that hit it.
	if _, err := bw.Write(nil); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Close flushes buffered records and finalises the count field: it verifies
// the promised count (NewWriterCount) or backpatches the reserved field
// with the number of records actually written (NewWriter). It does not
// close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.done {
		return nil
	}
	w.done = true
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	if w.hasPreset {
		if w.n != w.preset {
			w.err = fmt.Errorf("%w: promised %d, wrote %d", ErrCountMismatch, w.preset, w.n)
			return w.err
		}
		return nil
	}
	putPaddedUvarint(w.buf[:countFieldWidth], w.n)
	off := int64(w.headerLen)
	switch uw := w.w.(type) {
	case io.WriterAt:
		if _, err := uw.WriteAt(w.buf[:countFieldWidth], off); err != nil {
			w.err = err
			return err
		}
	case io.WriteSeeker:
		if _, err := uw.Seek(off, io.SeekStart); err != nil {
			w.err = err
			return err
		}
		if _, err := uw.Write(w.buf[:countFieldWidth]); err != nil {
			w.err = err
			return err
		}
		if _, err := uw.Seek(0, io.SeekEnd); err != nil {
			w.err = err
			return err
		}
	default:
		w.err = ErrNotSeekable
		return w.err
	}
	return nil
}
