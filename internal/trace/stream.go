package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"lvp/internal/isa"
)

// The VLT1 Reader. It delivers records through NextBatch (see BatchSource):
// the filled records are the caller's to keep.

// Reader decodes a VLT1 stream. The header (name, target, count) is read at
// construction; NextBatch then decodes records straight into the caller's
// buffer without per-record allocation.
type Reader struct {
	br     *bufio.Reader
	name   string
	target string
	count  uint64
	read   uint64
	prevPC uint64
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

// decode decodes the next record into rec. Unknown flag bits, out-of-range
// opcode, register and load-class bytes, flag/opcode inconsistencies and
// truncation all fail with an error naming the record index.
func (r *Reader) decode(rec *Record) error {
	i := r.read
	*rec = Record{}
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return fmt.Errorf("trace: record %d header: %w", i, err)
	}
	flags := r.hdr[0]
	if flags&^(flagMem|flagTaken|flagTarg|flagVal) != 0 {
		return fmt.Errorf("trace: record %d: unknown flag bits %#02x", i, flags)
	}
	if int(r.hdr[1]) >= isa.NumOps {
		return fmt.Errorf("trace: record %d: unknown opcode %d", i, r.hdr[1])
	}
	for _, reg := range r.hdr[2:5] {
		if reg >= isa.NumRegs {
			return fmt.Errorf("trace: record %d: register %d out of range", i, reg)
		}
	}
	if isa.LoadClass(r.hdr[5]) >= isa.NumLoadClasses {
		return fmt.Errorf("trace: record %d: load class %d out of range", i, r.hdr[5])
	}
	rec.Op = isa.Op(r.hdr[1])
	rec.Rd, rec.Ra, rec.Rb = isa.Reg(r.hdr[2]), isa.Reg(r.hdr[3]), isa.Reg(r.hdr[4])
	rec.Class = isa.LoadClass(r.hdr[5])
	// The flag byte is redundant with the opcode; reject records where
	// they disagree so every decoded trace is canonical (and re-encodes
	// to the same semantic records).
	if mem := rec.IsLoad() || rec.IsStore(); (flags&flagMem != 0) != mem {
		return fmt.Errorf("trace: record %d: mem flag inconsistent with opcode %v", i, rec.Op)
	}
	if (flags&flagTarg != 0) != rec.IsBranch() {
		return fmt.Errorf("trace: record %d: branch-target flag inconsistent with opcode %v", i, rec.Op)
	}
	if flags&flagVal != 0 && flags&flagMem != 0 {
		return fmt.Errorf("trace: record %d: value flag on a memory record", i)
	}
	dpc, err := binary.ReadVarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: record %d pc: %w", i, err)
	}
	rec.PC = r.prevPC + uint64(dpc)
	r.prevPC = rec.PC
	if rec.Imm, err = binary.ReadVarint(r.br); err != nil {
		return fmt.Errorf("trace: record %d imm: %w", i, err)
	}
	rec.Taken = flags&flagTaken != 0
	if flags&flagMem != 0 {
		sz, err := r.br.ReadByte()
		if err != nil {
			return fmt.Errorf("trace: record %d size: %w", i, err)
		}
		rec.Size = sz
		if rec.Addr, err = binary.ReadUvarint(r.br); err != nil {
			return fmt.Errorf("trace: record %d addr: %w", i, err)
		}
		if rec.Value, err = binary.ReadUvarint(r.br); err != nil {
			return fmt.Errorf("trace: record %d value: %w", i, err)
		}
	}
	if flags&flagVal != 0 {
		if rec.Value, err = binary.ReadUvarint(r.br); err != nil {
			return fmt.Errorf("trace: record %d result value: %w", i, err)
		}
	}
	if flags&flagTarg != 0 {
		if rec.Targ, err = binary.ReadUvarint(r.br); err != nil {
			return fmt.Errorf("trace: record %d target: %w", i, err)
		}
	}
	r.read++
	return nil
}

// NextBatch decodes up to len(buf) records into buf; (0, io.EOF) once the
// header's count has been decoded. A decode error follows the n records
// already decoded.
func (r *Reader) NextBatch(buf []Record) (int, error) {
	for n := range buf {
		if r.read >= r.count {
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		}
		if err := r.decode(&buf[n]); err != nil {
			return n, err
		}
	}
	return len(buf), nil
}
