package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"

	"lvp/internal/isa"
)

// Block-structured trace format ("VLT2"), the successor of VLT1 for large
// traces: records are grouped into fixed-size blocks that compress, seek and
// decode independently.
//
//	file    := header block* footer trailer
//	header  := magic "VLT2" | version byte (=1) | name | target
//	block   := kind byte (=0)
//	           count     uvarint   records in the block (1..MaxBlockRecords)
//	           rawLen    uvarint   payload bytes before compression
//	           codec     byte      0 = raw, 1 = DEFLATE
//	           encLen    uvarint   payload bytes on the wire
//	           firstPC   uvarint   PC of the block's first record (delta anchor)
//	           firstAddr uvarint   Addr of the block's first memory record
//	           crc       uint32 LE CRC32C of the header bytes (kind through
//	                     firstAddr) followed by the uncompressed payload
//	           payload   encLen bytes
//	footer  := kind byte (=1)
//	           nblocks   uvarint
//	           entries   nblocks × { offset uvarint | size uvarint | count uvarint }
//	           total     uvarint   total records in the file
//	           crc       uint32 LE CRC32C of the footer from its kind byte to total
//	trailer := footerOff uint64 LE | magic "VLT2.EOF"
//
// Strings are uvarint-length-prefixed as in VLT1. Block payloads hold the
// records in a delta form that needs only the block header to decode, so any
// block decodes independently of every other block:
//
//	b0      op (7 bits) | taken << 7
//	b1..b3  rd | ra<<5 | rb<<10 | class<<15 | hasImm<<18 | hasVal<<19
//	        (20 bits little-endian; the top 4 bits of b3 must be zero)
//	dpc     signed varint, delta from the previous record's PC
//	        (the block's first record deltas from firstPC, i.e. encodes 0)
//	[imm]   signed varint, present iff hasImm (hasImm ⇔ Imm != 0); branches
//	        store Imm−PC (immediates hold resolved targets, so the delta is
//	        small), everything else stores Imm directly
//	[mem]   loads/stores (implied by op): size byte, then daddr as a signed
//	        varint delta from the previous memory record's Addr (the first
//	        deltas from firstAddr), then the value
//	[value] present iff hasVal (non-memory records with Value != 0)
//
// Values (64-bit data, no useful delta structure) are not varints: each is a
// length byte n (0..8, the minimal width, so n's top byte is nonzero) plus n
// little-endian bytes. Fixed-width bytes decode with one masked load where a
// varint's data-dependent continuation bits cost the hot loop its worst
// branch mispredictions and its only multi-load varints.
//	[dtarg] signed varint Targ-PC, present iff op is a branch
//
// The footer's index entries carry each block's absolute file offset, total
// on-wire size (header + payload) and record count, so a reader holding an
// io.ReaderAt can seek to record N in O(log blocks) (vlt2_index.go). The
// trailer's fixed width lets it find the footer from the end of the file.
// Blocks are self-describing as well (each header carries its lengths,
// anchors and CRC), but this package reads VLT2 only through the index.

const (
	magic2        = "VLT2"
	trailerMagic2 = "VLT2.EOF"
	version2      = 1

	blockKindData   = 0
	blockKindFooter = 1

	// trailerLen2 is the fixed byte length of the trailer.
	trailerLen2 = 8 + len(trailerMagic2)
)

// BlockCodec selects the per-block payload compression.
type BlockCodec uint8

const (
	// CodecRaw stores block payloads uncompressed (delta+varint only) —
	// the fastest to decode.
	CodecRaw BlockCodec = 0
	// CodecFlate compresses block payloads with DEFLATE (BestSpeed).
	// Blocks that DEFLATE fails to shrink are stored raw, so the format
	// never grows over CodecRaw by more than the headers.
	CodecFlate BlockCodec = 1
)

func (c BlockCodec) String() string {
	switch c {
	case CodecRaw:
		return "raw"
	case CodecFlate:
		return "flate"
	}
	return fmt.Sprintf("BlockCodec(%d)", uint8(c))
}

// BlockCodecByName resolves a codec flag value ("raw" or "flate").
func BlockCodecByName(name string) (BlockCodec, error) {
	for _, c := range []BlockCodec{CodecRaw, CodecFlate} {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown block codec %q (want raw or flate)", name)
}

const (
	// DefaultBlockRecords is the default records-per-block. 4096 records
	// keep a raw payload around 20–40 KiB: large enough to amortize the
	// per-block header and index entry to nothing, small enough that a
	// decoded block stays cache-resident and a seek discards little work.
	DefaultBlockRecords = 4096

	// MaxBlockRecords caps the per-block record count a header may
	// declare, bounding what a hostile count can make a decoder allocate.
	MaxBlockRecords = 1 << 18

	// MaxBlockBytes caps a block's declared payload length.
	MaxBlockBytes = 1 << 24

	// maxFileBlocks caps the footer's declared block count.
	maxFileBlocks = 1 << 26

	// minEncRecord2/maxEncRecord2 bound one record's encoding: at least
	// the 4 fixed bytes plus a 1-byte dpc; at most the fixed bytes, three
	// 10-byte signed varints (dpc, imm, dtarg), and the widest memory tail
	// (size byte + 10-byte daddr + 9-byte value). Declared payload
	// lengths outside count×[min,max] are rejected before allocation.
	minEncRecord2 = 5
	maxEncRecord2 = 54
)

// Errors of the VLT2 reader. Decode failures wrap ErrCorrupt (and
// ErrChecksum for CRC mismatches) so callers can distinguish malformed input
// from I/O errors.
var (
	// ErrCorrupt reports structurally invalid VLT2 input.
	ErrCorrupt = errors.New("trace: corrupt VLT2 input")
	// ErrChecksum reports a block or footer whose CRC32C does not match
	// its payload.
	ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	// ErrVersion reports a VLT2 file with an unsupported version byte.
	ErrVersion = errors.New("trace: unsupported VLT2 version")
)

// castagnoli is the CRC32C polynomial table; hardware-accelerated on amd64
// and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record-shape bits, derived from the opcode once at init so the codec hot
// loops pay one table load instead of two class lookups.
const (
	shMem uint8 = 1 << iota
	shBranch
)

var opShape = func() [isa.NumOps]uint8 {
	var t [isa.NumOps]uint8
	for op := 0; op < isa.NumOps; op++ {
		if isa.IsLoad(isa.Op(op)) || isa.IsStore(isa.Op(op)) {
			t[op] |= shMem
		}
		if isa.IsBranch(isa.Op(op)) {
			t[op] |= shBranch
		}
	}
	return t
}()

// Packed-field layout of bytes b1..b3.
const (
	fRd     = 0
	fRa     = 5
	fRb     = 10
	fClass  = 15
	fHasImm = 18
	fHasVal = 19
)

// uvarintLen is the encoded size of v as a minimal uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// zigzag maps a signed delta onto the uvarint space.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// appendUvarint appends v to dst as a minimal uvarint.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// appendValue2 appends a 64-bit value as one length byte plus that many
// little-endian bytes — the minimal width holding the value, so the encoding
// is canonical (decoders reject a padded top byte of zero).
func appendValue2(dst []byte, v uint64) []byte {
	n := (bits.Len64(v) + 7) / 8
	dst = append(dst, byte(n))
	for ; n > 0; n-- {
		dst = append(dst, byte(v))
		v >>= 8
	}
	return dst
}

// appendRecord2 appends r's VLT2 encoding to dst and returns the updated
// delta state. The caller owns anchor initialisation: for a block's first
// record prevPC must equal r.PC, and for its first memory record prevAddr
// must equal r.Addr, so both encode a zero delta.
func appendRecord2(dst []byte, r *Record, prevPC, prevAddr uint64) ([]byte, uint64, uint64) {
	op := uint8(r.Op) & 0x7f
	shape := opShape[op]
	mem := shape&shMem != 0

	b0 := op
	if r.Taken {
		b0 |= 0x80
	}
	fld := (uint32(r.Rd)&31)<<fRd | (uint32(r.Ra)&31)<<fRa | (uint32(r.Rb)&31)<<fRb |
		(uint32(r.Class)&7)<<fClass
	if r.Imm != 0 {
		fld |= 1 << fHasImm
	}
	hasVal := !mem && r.Value != 0
	if hasVal {
		fld |= 1 << fHasVal
	}
	dst = append(dst, b0, byte(fld), byte(fld>>8), byte(fld>>16))
	dst = appendUvarint(dst, zigzag(int64(r.PC-prevPC)))
	prevPC = r.PC
	if r.Imm != 0 {
		iv := r.Imm
		if shape&shBranch != 0 {
			iv -= int64(r.PC)
		}
		dst = appendUvarint(dst, zigzag(iv))
	}
	if mem {
		dst = append(dst, r.Size)
		dst = appendUvarint(dst, zigzag(int64(r.Addr-prevAddr)))
		prevAddr = r.Addr
		dst = appendValue2(dst, r.Value)
	} else if hasVal {
		dst = appendValue2(dst, r.Value)
	}
	if shape&shBranch != 0 {
		dst = appendUvarint(dst, zigzag(int64(r.Targ-r.PC)))
	}
	return dst, prevPC, prevAddr
}

// Writer2Options configure a VLT2 writer. The zero value selects the
// defaults (DefaultBlockRecords records per block, CodecRaw payloads).
type Writer2Options struct {
	// BlockRecords is the records-per-block target; 0 selects
	// DefaultBlockRecords. Values above MaxBlockRecords are rejected.
	BlockRecords int
	// Codec selects the per-block payload compression.
	Codec BlockCodec
}

// indexEnt2 is one footer index entry under construction.
type indexEnt2 struct {
	off   uint64 // absolute file offset of the block's kind byte
	size  uint64 // on-wire bytes, header through payload
	count uint64 // records in the block
}

// block2 is one block in flight between Writer2's record path and its
// helper goroutine: the payload and delta anchors on the way out, the same
// payload buffer and the helper's sticky error on the way back.
type block2 struct {
	payload   []byte
	count     int
	firstPC   uint64
	firstAddr uint64
	err       error
}

// Writer2 encodes a VLT2 stream record-at-a-time in constant memory (two
// block payloads buffered). It never needs to backpatch — the record count
// and block index live in the footer — so any io.Writer works, seekable or
// not, with or without a known count.
//
// WriteRecord only encodes; each full block goes to one helper goroutine
// that compresses, checksums, writes and indexes it while the next block
// fills. The helper lives until Close, so Close must be called even after
// an error, and the underlying writer must not be closed before it.
// WriteRecord must not be called after Close.
type Writer2 struct {
	opts Writer2Options
	n    uint64 // records written

	// Current block.
	cur      block2
	haveAddr bool
	prevPC   uint64
	prevAddr uint64

	// Handoff to writeBlocks: full blocks go out on blocks and their
	// payload buffers come back on free, so two buffers alternate.
	blocks chan block2
	free   chan block2

	// Owned by the helper until Close has drained it.
	w      *bufio.Writer
	off    uint64 // logical bytes emitted
	idx    []indexEnt2
	fw     *flate.Writer
	cbuf   bytes.Buffer
	hdrBuf []byte

	err  error // sticky
	done bool
}

// NewWriter2 returns a streaming VLT2 writer with default options.
func NewWriter2(w io.Writer, name, target string) (*Writer2, error) {
	return NewWriter2Opts(w, name, target, Writer2Options{})
}

// NewWriter2Opts returns a streaming VLT2 writer with explicit options.
func NewWriter2Opts(w io.Writer, name, target string, opts Writer2Options) (*Writer2, error) {
	if opts.BlockRecords == 0 {
		opts.BlockRecords = DefaultBlockRecords
	}
	if opts.BlockRecords < 1 || opts.BlockRecords > MaxBlockRecords {
		return nil, fmt.Errorf("trace: block size %d out of range [1, %d]", opts.BlockRecords, MaxBlockRecords)
	}
	if opts.Codec > CodecFlate {
		return nil, fmt.Errorf("trace: unknown block codec %d", opts.Codec)
	}
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriterSize(w, 1<<16)
	}
	w2 := &Writer2{w: bw, opts: opts, blocks: make(chan block2), free: make(chan block2, 1)}
	bw.WriteString(magic2)
	bw.WriteByte(version2)
	writeString(bw, name)
	writeString(bw, target)
	w2.off = uint64(len(magic2)) + 1 +
		uint64(uvarintLen(uint64(len(name)))+len(name)) +
		uint64(uvarintLen(uint64(len(target)))+len(target))
	if _, err := bw.Write(nil); err != nil {
		return nil, err
	}
	if opts.Codec == CodecFlate {
		fw, err := flate.NewWriter(&w2.cbuf, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		w2.fw = fw
	}
	w2.free <- block2{} // the second payload buffer
	go w2.writeBlocks()
	return w2, nil
}

// Count returns the number of records written so far.
func (w *Writer2) Count() uint64 { return w.n }

// WriteRecord appends one record to the current block, handing the block to
// the helper when it reaches the configured size. The first error is
// sticky; a write error surfaces no later than the handoff of the block
// after the one that failed, or from Close.
func (w *Writer2) WriteRecord(r *Record) error {
	if w.err != nil {
		return w.err
	}
	if w.cur.count == 0 {
		w.cur.firstPC = r.PC
		w.prevPC = r.PC
		w.cur.firstAddr = 0
		w.prevAddr = 0
		w.haveAddr = false
	}
	if opShape[uint8(r.Op)&0x7f]&shMem != 0 && !w.haveAddr {
		w.cur.firstAddr = r.Addr
		w.prevAddr = r.Addr
		w.haveAddr = true
	}
	w.cur.payload, w.prevPC, w.prevAddr = appendRecord2(w.cur.payload, r, w.prevPC, w.prevAddr)
	w.cur.count++
	w.n++
	if w.cur.count >= w.opts.BlockRecords {
		return w.handoff()
	}
	return nil
}

// handoff passes the current block to the helper and takes back the other
// payload buffer, with the helper's error as of the block that used it.
func (w *Writer2) handoff() error {
	w.blocks <- w.cur
	w.cur = <-w.free
	w.cur.payload = w.cur.payload[:0]
	w.cur.count = 0
	w.err = w.cur.err
	return w.err
}

// writeBlocks is the helper goroutine: it writes each block in order and
// returns its buffer. After the first error it writes nothing more, only
// passing the error back with every buffer; it exits once Close closes
// blocks, closing free behind it.
func (w *Writer2) writeBlocks() {
	var err error
	for b := range w.blocks {
		if err == nil {
			err = w.writeBlock(&b)
		}
		b.err = err
		w.free <- b
	}
	close(w.free)
}

// writeBlock compresses, checksums, writes and indexes one block.
func (w *Writer2) writeBlock(b *block2) error {
	raw := b.payload
	enc := raw
	codec := CodecRaw
	if w.fw != nil {
		w.cbuf.Reset()
		w.fw.Reset(&w.cbuf)
		if _, err := w.fw.Write(raw); err != nil {
			return err
		}
		if err := w.fw.Close(); err != nil {
			return err
		}
		// Keep the block raw when DEFLATE failed to shrink it, so a
		// compressed file is never slower *and* bigger per block.
		if w.cbuf.Len() < len(raw) {
			enc = w.cbuf.Bytes()
			codec = CodecFlate
		}
	}
	hdr := blockHdr2{
		count: uint64(b.count), rawLen: uint64(len(raw)), codec: codec,
		encLen: uint64(len(enc)), firstPC: b.firstPC, firstAddr: b.firstAddr,
	}
	h := hdr.appendWire(w.hdrBuf[:0])
	// The CRC covers the header fields and the uncompressed payload, so a
	// corrupted delta anchor fails the checksum instead of silently
	// shifting every record in the block.
	h = binary.LittleEndian.AppendUint32(h, crc32.Update(crc32.Checksum(h, castagnoli), castagnoli, raw))
	w.hdrBuf = h
	if _, err := w.w.Write(h); err != nil {
		return err
	}
	if _, err := w.w.Write(enc); err != nil {
		return err
	}
	size := uint64(len(h) + len(enc))
	w.idx = append(w.idx, indexEnt2{off: w.off, size: size, count: uint64(b.count)})
	w.off += size
	return nil
}

// Close hands off the final block, waits for the helper to write it and
// exit, then writes the footer index and trailer and flushes buffered
// bytes. It does not close the underlying writer. Close must be called even
// after an error, to stop the helper; it then returns that error, as does
// every later call.
func (w *Writer2) Close() error {
	if w.done {
		return w.err
	}
	w.done = true
	if w.err == nil && w.cur.count > 0 {
		w.handoff()
	}
	close(w.blocks)
	for b := range w.free {
		if w.err == nil {
			w.err = b.err
		}
	}
	if w.err != nil {
		return w.err
	}
	footerOff := w.off
	f := w.hdrBuf[:0]
	f = append(f, blockKindFooter)
	f = appendUvarint(f, uint64(len(w.idx)))
	for _, e := range w.idx {
		f = appendUvarint(f, e.off)
		f = appendUvarint(f, e.size)
		f = appendUvarint(f, e.count)
	}
	f = appendUvarint(f, w.n)
	f = binary.LittleEndian.AppendUint32(f, crc32.Checksum(f, castagnoli))
	f = binary.LittleEndian.AppendUint64(f, footerOff)
	f = append(f, trailerMagic2...)
	w.hdrBuf = f
	if _, err := w.w.Write(f); err != nil {
		w.err = err
		return err
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Write2 encodes t to w in the VLT2 format. A zero opts selects defaults.
func Write2(w io.Writer, t *Trace, opts Writer2Options) error {
	w2, err := NewWriter2Opts(w, t.Name, t.Target, opts)
	if err != nil {
		return err
	}
	for i := range t.Records {
		if err := w2.WriteRecord(&t.Records[i]); err != nil {
			w2.Close()
			return err
		}
	}
	return w2.Close()
}
