package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"

	"lvp/internal/isa"
	"lvp/internal/obs"
)

// Sequential VLT2 decoding: block-at-a-time from any io.Reader, front to
// back, no index needed. The hot path is the blockDec loop, shared with the
// indexed reader, which decodes records straight out of an in-memory
// payload slice into the caller's batch buffer — no bufio bookkeeping, no
// per-byte interface dispatch, no intermediate copy.

// blockHdr2 is one parsed data-block header.
type blockHdr2 struct {
	count     uint64
	rawLen    uint64
	codec     BlockCodec
	encLen    uint64
	firstPC   uint64
	firstAddr uint64
	crc       uint32
}

// hdrSize2 bounds an encoded block header: kind + codec + crc plus five
// maximal uvarints.
const hdrSize2 = 2 + 4 + 5*binary.MaxVarintLen64

// appendWire re-serializes the header's CRC-covered prefix — the kind byte
// through firstAddr, with canonical minimal uvarints — exactly as the
// writer lays it down. The block CRC runs over these bytes followed by the
// uncompressed payload, so a corrupted header field (or a field re-encoded
// as an overlong varint) fails the checksum instead of silently shifting
// every decoded record.
func (h *blockHdr2) appendWire(dst []byte) []byte {
	dst = append(dst, blockKindData)
	dst = appendUvarint(dst, h.count)
	dst = appendUvarint(dst, h.rawLen)
	dst = append(dst, byte(h.codec))
	dst = appendUvarint(dst, h.encLen)
	dst = appendUvarint(dst, h.firstPC)
	dst = appendUvarint(dst, h.firstAddr)
	return dst
}

// validate applies the structural bounds that hold for every well-formed
// block, rejecting hostile lengths before any allocation happens.
func (h *blockHdr2) validate() error {
	if h.count < 1 || h.count > MaxBlockRecords {
		return fmt.Errorf("%w: block record count %d out of range [1, %d]", ErrCorrupt, h.count, MaxBlockRecords)
	}
	if h.rawLen > MaxBlockBytes {
		return fmt.Errorf("%w: block payload length %d exceeds %d", ErrCorrupt, h.rawLen, MaxBlockBytes)
	}
	if h.codec > CodecFlate {
		return fmt.Errorf("%w: unknown block codec %d", ErrCorrupt, uint8(h.codec))
	}
	if h.rawLen < h.count*minEncRecord2 || h.rawLen > h.count*maxEncRecord2 {
		return fmt.Errorf("%w: block payload length %d implausible for %d records", ErrCorrupt, h.rawLen, h.count)
	}
	if h.codec == CodecFlate {
		if h.encLen < 1 || h.encLen >= h.rawLen {
			return fmt.Errorf("%w: flate block encoded length %d outside [1, %d)", ErrCorrupt, h.encLen, h.rawLen)
		}
	} else if h.encLen != h.rawLen {
		return fmt.Errorf("%w: raw block encoded length %d != payload length %d", ErrCorrupt, h.encLen, h.rawLen)
	}
	return nil
}

// blockDec decodes records from one uncompressed block payload. It is a
// value type so readers can reset it per block without allocation.
type blockDec struct {
	p        []byte
	off      int
	n        int // records decoded
	count    int // records in the block
	prevPC   uint64
	prevAddr uint64
	firstPC  uint64
}

func (d *blockDec) reset(p []byte, h *blockHdr2) {
	*d = blockDec{p: p, count: int(h.count), prevPC: h.firstPC, prevAddr: h.firstAddr, firstPC: h.firstPC}
}

// remaining reports how many records are still undecoded in the block.
func (d *blockDec) remaining() int { return d.count - d.n }

// uvarintMore finishes a uvarint whose first byte v had the continuation bit
// set; off points at the second byte. It returns the value and the new
// offset, or a negative offset on truncation/overflow.
//
// When 8 bytes are readable at off it decodes word-at-a-time: one 64-bit
// load, find the first stop byte with a mask, then extract every 7-bit group
// with shift/mask — no serial per-byte loop. The byte loop below remains for
// payload tails and 10-byte varints.
func uvarintMore(p []byte, off int, v uint64) (uint64, int) {
	if off+8 <= len(p) {
		x := binary.LittleEndian.Uint64(p[off:])
		if m := ^x & 0x8080808080808080; m != 0 {
			n := bits.TrailingZeros64(m) >> 3 // continuation bytes beyond the first: 0..7
			if n < 7 {
				x &= 1<<(8*uint(n)+8) - 1
			}
			w := x & 0x7f
			w |= x >> 1 & (0x7f << 7)
			w |= x >> 2 & (0x7f << 14)
			w |= x >> 3 & (0x7f << 21)
			w |= x >> 4 & (0x7f << 28)
			w |= x >> 5 & (0x7f << 35)
			w |= x >> 6 & (0x7f << 42)
			w |= x >> 7 & (0x7f << 49)
			return v&0x7f | w<<7, off + n + 1
		}
	}
	v &= 0x7f
	for shift := uint(7); shift < 64; shift += 7 {
		if off >= len(p) {
			return 0, -1
		}
		b := p[off]
		off++
		if b < 0x80 {
			if shift == 63 && b > 1 {
				return 0, -1 // overflows uint64
			}
			return v | uint64(b)<<shift, off
		}
		v |= uint64(b&0x7f) << shift
	}
	return 0, -1 // more than 10 bytes
}

// uvarintFast decodes the uvarint at p[off:] in one 64-bit load: the first
// stop byte is found with a mask, the value bytes are kept with a
// lowest-set-bit mask, and all eight 7-bit groups extract as a shift/mask
// tree — branchless over 1..8-byte varints, so varying widths cost no
// mispredictions. 9- and 10-byte varints (full 64-bit values are common in
// the value field) take a slow tail that reads up to two more bytes. The
// caller must guarantee off+10 <= len(p); a malformed varint (more than 10
// bytes, or a 10th byte overflowing uint64) returns a negative offset for
// the checked decoder to report.
func uvarintFast(p []byte, off int) (uint64, int) {
	x := binary.LittleEndian.Uint64(p[off:])
	m := ^x & 0x8080808080808080
	if m == 0 {
		// All eight bytes are continuation bytes: extract their 56 bits,
		// then finish from the ninth (and rarely tenth) byte.
		w := x&0x7f | x>>1&(0x7f<<7) | x>>2&(0x7f<<14) | x>>3&(0x7f<<21) |
			x>>4&(0x7f<<28) | x>>5&(0x7f<<35) | x>>6&(0x7f<<42) | x>>7&(0x7f<<49)
		b8 := p[off+8]
		if b8 < 0x80 {
			return w | uint64(b8)<<56, off + 9
		}
		b9 := p[off+9]
		if b9 > 1 {
			return 0, -1 // more than 10 bytes, or overflows uint64
		}
		return w | uint64(b8&0x7f)<<56 | uint64(b9)<<63, off + 10
	}
	lsb := m & -m
	x &= lsb<<1 - 1 // keep the stop byte and everything below it
	a := x&0x7f | x>>1&(0x7f<<7)
	b := x>>2&(0x7f<<14) | x>>3&(0x7f<<21)
	c := x>>4&(0x7f<<28) | x>>5&(0x7f<<35)
	d := x>>6&(0x7f<<42) | x>>7&(0x7f<<49)
	return a | b | c | d, off + bits.TrailingZeros64(m)>>3 + 1
}

// fastSlack2 is the payload headroom the unchecked decode loop requires: a
// maximal record plus one 8-byte varint load reaching past its last field.
const fastSlack2 = maxEncRecord2 + 9

// decodeInto decodes up to len(buf) records from the block into buf and
// returns how many it produced. Errors name the record's index within the
// block; callers add file-level context. After the final record it verifies
// the payload was consumed exactly.
//
// Two loops share the work. The fast loop runs while fastSlack2 payload
// bytes remain, which puts every byte and word access below in bounds by
// construction — no per-field truncation checks — and decodes varints with
// uvarintFast. It commits nothing until a record fully parses; on any
// anomaly (malformed field, rare 9/10-byte varint) it simply stops, and the
// checked loop re-parses the same record byte-by-byte, either producing it
// or reporting the precise error. The checked loop also finishes each
// block's tail. Both loops apply identical validity rules.
func (d *blockDec) decodeInto(buf []Record) (int, error) {
	p := d.p
	off := d.off
	k := 0
	// The delta state lives in locals inside the fast loop: left in d, each
	// record's PC would round-trip through a store-to-load forward on its
	// serial dependency chain (pc[i+1] = pc[i] + delta). The checked path
	// below still works on d directly; the loops sync at the boundary.
	prevPC, prevAddr, n := d.prevPC, d.prevAddr, d.n
	for k < len(buf) && n < d.count {
		// One counter bounds the fast loop: the records wanted, the records
		// left in the block, and a byte-conservative floor on how many
		// maximal records certainly leave fastSlack2 of headroom. Dividing
		// by the max record size is pessimistic, so the outer loop
		// recomputes the bound a few times per block; each recomputation is
		// three compares amortized over dozens of records.
		lim := min(len(buf)-k, d.count-n, (len(p)-off-fastSlack2)/maxEncRecord2+1)
		if len(p)-off < fastSlack2 {
			lim = 0
		}
		for ; lim > 0; lim-- {
			x4 := binary.LittleEndian.Uint32(p[off:])
			b0 := byte(x4)
			op := b0 & 0x7f
			fld := x4 >> 8
			class := fld >> fClass & 7
			if int(op) >= isa.NumOps || fld>>20 != 0 || class >= uint32(isa.NumLoadClasses) {
				break
			}
			shape := opShape[op]
			var (
				o         int
				v         uint64
				pc, addr  uint64
				val, targ uint64
				imm       int64
				nv        int
				size      uint8
			)
			o = off + 4
			// Each field reads its first byte inline — deltas are one byte
			// in the common case and the branch predicts well — picks up a
			// second byte inline, and hands 3+-byte varints to uvarintFast.
			v = uint64(p[o])
			o++
			if v >= 0x80 {
				if b := uint64(p[o]); b < 0x80 {
					v = v&0x7f | b<<7
					o++
				} else if v, o = uvarintFast(p, o-1); o < 0 {
					break
				}
			}
			pc = prevPC + uint64(unzigzag(v))
			if fld&(1<<fHasImm) != 0 {
				v = uint64(p[o])
				o++
				if v >= 0x80 {
					if b := uint64(p[o]); b < 0x80 {
						v = v&0x7f | b<<7
						o++
					} else if v, o = uvarintFast(p, o-1); o < 0 {
						break
					}
				}
				imm = unzigzag(v)
				if shape&shBranch != 0 {
					imm += int64(pc)
				}
				if imm == 0 {
					break
				}
			}
			addr = prevAddr
			if shape&shMem != 0 {
				if fld&(1<<fHasVal) != 0 {
					break
				}
				size = p[o]
				o++
				v = uint64(p[o])
				o++
				if v >= 0x80 {
					if b := uint64(p[o]); b < 0x80 {
						v = v&0x7f | b<<7
						o++
					} else if v, o = uvarintFast(p, o-1); o < 0 {
						break
					}
				}
				addr += uint64(unzigzag(v))
				nv = int(p[o])
				o++
				if nv > 8 || (nv > 0 && p[o+nv-1] == 0) {
					break
				}
				val = binary.LittleEndian.Uint64(p[o:]) & (^uint64(0) >> (8 * (8 - uint(nv))))
				o += nv
			} else if fld&(1<<fHasVal) != 0 {
				nv = int(p[o])
				o++
				if nv == 0 || nv > 8 || p[o+nv-1] == 0 {
					break
				}
				val = binary.LittleEndian.Uint64(p[o:]) & (^uint64(0) >> (8 * (8 - uint(nv))))
				o += nv
			}
			if shape&shBranch != 0 {
				v = uint64(p[o])
				o++
				if v >= 0x80 {
					if b := uint64(p[o]); b < 0x80 {
						v = v&0x7f | b<<7
						o++
					} else if v, o = uvarintFast(p, o-1); o < 0 {
						break
					}
				}
				targ = pc + uint64(unzigzag(v))
			}
			if n == 0 && pc != d.firstPC {
				break
			}
			prevPC = pc
			if shape&shMem != 0 {
				prevAddr = addr
			} else {
				addr = 0
			}
			r := &buf[k]
			r.PC = pc
			r.Addr = addr
			r.Value = val
			r.Imm = imm
			r.Targ = targ
			r.Op = isa.Op(op)
			r.Rd = isa.Reg(fld & 31)
			r.Ra = isa.Reg(fld >> fRa & 31)
			r.Rb = isa.Reg(fld >> fRb & 31)
			r.Class = isa.LoadClass(class)
			r.Size = size
			r.Taken = b0&0x80 != 0
			k++
			n++
			off = o
		}
		d.prevPC, d.prevAddr, d.n = prevPC, prevAddr, n
		if k >= len(buf) || n >= d.count {
			break
		}
		// Every byte access below is bounds-checked against len(p) via
		// the varint helpers and the explicit guards, so a lying header
		// or truncated payload fails cleanly rather than panicking.
		if off+4 > len(p) {
			return k, d.fail(off, "truncated record header")
		}
		x4 := binary.LittleEndian.Uint32(p[off:])
		b0 := byte(x4)
		op := b0 & 0x7f
		if int(op) >= isa.NumOps {
			return k, d.fail(off, "unknown opcode")
		}
		bits := x4 >> 8
		if bits>>20 != 0 {
			return k, d.fail(off, "reserved field bits set")
		}
		class := (bits >> fClass) & 7
		if class >= uint32(isa.NumLoadClasses) {
			return k, d.fail(off, "load class out of range")
		}
		off += 4

		if off >= len(p) {
			return k, d.fail(off, "truncated pc delta")
		}
		v := uint64(p[off])
		off++
		if v >= 0x80 {
			if v, off = uvarintMore(p, off, v); off < 0 {
				return k, d.fail(len(p), "bad pc delta varint")
			}
		}
		pc := d.prevPC + uint64(unzigzag(v))
		if d.n == 0 && pc != d.firstPC {
			return k, d.fail(off, "first record disagrees with firstPC anchor")
		}
		d.prevPC = pc

		shape := opShape[op]
		var imm int64
		if bits&(1<<fHasImm) != 0 {
			if off >= len(p) {
				return k, d.fail(off, "truncated imm")
			}
			v = uint64(p[off])
			off++
			if v >= 0x80 {
				if v, off = uvarintMore(p, off, v); off < 0 {
					return k, d.fail(len(p), "bad imm varint")
				}
			}
			imm = unzigzag(v)
			if shape&shBranch != 0 {
				imm += int64(pc)
			}
			if imm == 0 {
				return k, d.fail(off, "imm flag set on zero immediate")
			}
		}
		var addr, val, targ uint64
		var size uint8
		if shape&shMem != 0 {
			if bits&(1<<fHasVal) != 0 {
				return k, d.fail(off, "value flag on a memory record")
			}
			if off >= len(p) {
				return k, d.fail(off, "truncated size")
			}
			size = p[off]
			off++
			if off >= len(p) {
				return k, d.fail(off, "truncated addr delta")
			}
			v = uint64(p[off])
			off++
			if v >= 0x80 {
				if v, off = uvarintMore(p, off, v); off < 0 {
					return k, d.fail(len(p), "bad addr delta varint")
				}
			}
			addr = d.prevAddr + uint64(unzigzag(v))
			d.prevAddr = addr
			if val, off = d.checkedValue(p, off); off < 0 {
				return k, d.fail(len(p), "bad value field")
			}
		} else if bits&(1<<fHasVal) != 0 {
			if val, off = d.checkedValue(p, off); off < 0 {
				return k, d.fail(len(p), "bad value field")
			}
			if val == 0 {
				return k, d.fail(off, "value flag set on zero value")
			}
		}
		if shape&shBranch != 0 {
			if off >= len(p) {
				return k, d.fail(off, "truncated branch target")
			}
			v = uint64(p[off])
			off++
			if v >= 0x80 {
				if v, off = uvarintMore(p, off, v); off < 0 {
					return k, d.fail(len(p), "bad branch target varint")
				}
			}
			targ = pc + uint64(unzigzag(v))
		}

		buf[k] = Record{
			PC: pc, Addr: addr, Value: val, Imm: imm,
			Op: isa.Op(op), Rd: isa.Reg(bits & 31), Ra: isa.Reg((bits >> fRa) & 31), Rb: isa.Reg((bits >> fRb) & 31),
			Class: isa.LoadClass(class), Size: size, Taken: b0&0x80 != 0, Targ: targ,
		}
		k++
		d.n++
		prevPC, prevAddr, n = d.prevPC, d.prevAddr, d.n
	}
	d.off = off
	if d.n == d.count && off != len(p) {
		return k, fmt.Errorf("%w: block has %d trailing payload bytes after record %d", ErrCorrupt, len(p)-off, d.count-1)
	}
	return k, nil
}

func (d *blockDec) fail(off int, msg string) error {
	return fmt.Errorf("%w: record %d (payload offset %d): %s", ErrCorrupt, d.n, off, msg)
}

// checkedValue decodes a length-prefixed value field with full bounds
// checks, mirroring the fast loop's masked-load decode byte by byte. It
// returns a negative offset on truncation, an over-long length byte, or a
// non-minimal encoding (zero top byte).
func (d *blockDec) checkedValue(p []byte, off int) (uint64, int) {
	if off >= len(p) {
		return 0, -1
	}
	n := int(p[off])
	off++
	if n > 8 || off+n > len(p) {
		return 0, -1
	}
	var v uint64
	for j := 0; j < n; j++ {
		v |= uint64(p[off+j]) << (8 * uint(j))
	}
	if n > 0 && p[off+n-1] == 0 {
		return 0, -1
	}
	return v, off + n
}

// v2Metrics is the trace.v2.* counter set, resolved once per reader so the
// per-block updates are single atomic adds (and no-ops on a nil registry).
type v2Metrics struct {
	blocks   *obs.Counter // trace.v2.blocks: data blocks decoded
	rawBytes *obs.Counter // trace.v2.bytes.raw: payload bytes after decompression
	encBytes *obs.Counter // trace.v2.bytes.compressed: payload bytes on the wire
	records  *obs.Counter // trace.v2.records: records decoded
}

func newV2Metrics(m *obs.Registry) v2Metrics {
	return v2Metrics{
		blocks:   m.Counter("trace.v2.blocks"),
		rawBytes: m.Counter("trace.v2.bytes.raw"),
		encBytes: m.Counter("trace.v2.bytes.compressed"),
		records:  m.Counter("trace.v2.records"),
	}
}

// blockReader owns the reusable buffers for fetching one block's payload:
// the on-wire bytes, the decompressed bytes, and the flate state. All three
// are reused across blocks, so steady-state reads allocate nothing.
type blockReader struct {
	encBuf []byte
	rawBuf []byte
	hdrBuf []byte
	encRd  *bytes.Reader
	fr     io.ReadCloser
}

// grow returns b resized to n, reusing capacity when it can.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// decompress materialises a block's raw payload from its on-wire bytes,
// verifying the length and CRC. The returned slice aliases the reusable
// buffers and is valid until the next call.
func (br *blockReader) decompress(h *blockHdr2, enc []byte) ([]byte, error) {
	raw := enc
	if h.codec == CodecFlate {
		if br.encRd == nil {
			br.encRd = bytes.NewReader(nil)
		}
		br.encRd.Reset(enc)
		if br.fr == nil {
			br.fr = flate.NewReader(br.encRd)
		} else if err := br.fr.(flate.Resetter).Reset(br.encRd, nil); err != nil {
			return nil, err
		}
		br.rawBuf = grow(br.rawBuf, int(h.rawLen))
		if _, err := io.ReadFull(br.fr, br.rawBuf); err != nil {
			return nil, fmt.Errorf("%w: flate payload: %v", ErrCorrupt, err)
		}
		// The compressed stream must end exactly at rawLen bytes.
		var one [1]byte
		if n, _ := br.fr.Read(one[:]); n != 0 {
			return nil, fmt.Errorf("%w: flate payload longer than declared %d bytes", ErrCorrupt, h.rawLen)
		}
		raw = br.rawBuf
	}
	br.hdrBuf = h.appendWire(br.hdrBuf[:0])
	if crc32.Update(crc32.Checksum(br.hdrBuf, castagnoli), castagnoli, raw) != h.crc {
		return nil, ErrChecksum
	}
	return raw, nil
}

// Reader2 decodes a VLT2 stream sequentially from any io.Reader: blocks are
// self-describing, so no seeking and no footer access is needed — the footer
// is cross-checked against the blocks actually decoded when the stream
// reaches it. Next and NextBatch are allocation-free at steady state.
type Reader2 struct {
	br     *bufio.Reader
	name   string
	target string
	hdrLen uint64 // file-header bytes; the first block's offset
	read   uint64
	total  uint64 // from the footer; valid once done
	blocks uint64 // data blocks decoded so far
	bytes  uint64 // on-wire block bytes consumed (header + payload)

	dec    blockDec
	fetch  blockReader
	hdrTmp blockHdr2
	crcTmp [4]byte // a local would escape through io.ReadFull
	rec    Record
	m      v2Metrics
	done   bool
	err    error // sticky decode error
}

// NewReader2 reads and validates the VLT2 header from r and returns a
// sequential reader positioned at the first record.
func NewReader2(r io.Reader) (*Reader2, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var m [5]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(m[:4]) != magic2 {
		return nil, ErrBadMagic
	}
	if m[4] != version2 {
		return nil, fmt.Errorf("%w: %d", ErrVersion, m[4])
	}
	r2 := &Reader2{br: br, m: newV2Metrics(nil)}
	var err error
	if r2.name, err = readString(br); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	if r2.target, err = readString(br); err != nil {
		return nil, fmt.Errorf("trace: reading target: %w", err)
	}
	r2.hdrLen = uint64(len(magic2)) + 1 +
		uint64(uvarintLen(uint64(len(r2.name)))+len(r2.name)) +
		uint64(uvarintLen(uint64(len(r2.target)))+len(r2.target))
	return r2, nil
}

// SetMetrics routes the reader's trace.v2.* counters into m (nil disables).
func (r *Reader2) SetMetrics(m *obs.Registry) { r.m = newV2Metrics(m) }

// Name returns the trace's benchmark name from the header.
func (r *Reader2) Name() string { return r.name }

// Target returns the trace's codegen target from the header.
func (r *Reader2) Target() string { return r.target }

// Count returns the file's total record count, which a sequential VLT2
// reader only learns from the footer: it is 0 until the stream has been
// fully drained. The indexed reader knows it up front.
func (r *Reader2) Count() uint64 {
	if !r.done {
		return 0
	}
	return r.total
}

// Decoded returns the number of records decoded so far.
func (r *Reader2) Decoded() uint64 { return r.read }

// readBlockHeader parses the next block's kind and header. A footer kind
// byte switches to footer parsing, which cross-checks the index against the
// blocks this reader actually decoded and consumes the trailer.
func (r *Reader2) readBlockHeader() (more bool, err error) {
	kind, err := r.br.ReadByte()
	if err != nil {
		return false, fmt.Errorf("trace: vlt2 block %d kind: %w", r.blocks, err)
	}
	if kind == blockKindFooter {
		if err := r.checkFooter(); err != nil {
			return false, err
		}
		r.done = true
		return false, nil
	}
	if kind != blockKindData {
		return false, fmt.Errorf("%w: unknown block kind %d", ErrCorrupt, kind)
	}
	h := &r.hdrTmp
	if h.count, err = binary.ReadUvarint(r.br); err != nil {
		return false, fmt.Errorf("trace: vlt2 block %d count: %w", r.blocks, err)
	}
	if h.rawLen, err = binary.ReadUvarint(r.br); err != nil {
		return false, fmt.Errorf("trace: vlt2 block %d raw length: %w", r.blocks, err)
	}
	codec, err := r.br.ReadByte()
	if err != nil {
		return false, fmt.Errorf("trace: vlt2 block %d codec: %w", r.blocks, err)
	}
	h.codec = BlockCodec(codec)
	if h.encLen, err = binary.ReadUvarint(r.br); err != nil {
		return false, fmt.Errorf("trace: vlt2 block %d encoded length: %w", r.blocks, err)
	}
	if h.firstPC, err = binary.ReadUvarint(r.br); err != nil {
		return false, fmt.Errorf("trace: vlt2 block %d firstPC: %w", r.blocks, err)
	}
	if h.firstAddr, err = binary.ReadUvarint(r.br); err != nil {
		return false, fmt.Errorf("trace: vlt2 block %d firstAddr: %w", r.blocks, err)
	}
	if _, err := io.ReadFull(r.br, r.crcTmp[:]); err != nil {
		return false, fmt.Errorf("trace: vlt2 block %d crc: %w", r.blocks, err)
	}
	h.crc = binary.LittleEndian.Uint32(r.crcTmp[:])
	if err := h.validate(); err != nil {
		return false, fmt.Errorf("trace: vlt2 block %d: %w", r.blocks, err)
	}
	return true, nil
}

// loadBlock fetches, verifies and stages the next data block for decoding.
// It returns false at the footer.
func (r *Reader2) loadBlock() (bool, error) {
	more, err := r.readBlockHeader()
	if err != nil || !more {
		return false, err
	}
	h := &r.hdrTmp
	r.fetch.encBuf = grow(r.fetch.encBuf, int(h.encLen))
	if _, err := io.ReadFull(r.br, r.fetch.encBuf); err != nil {
		return false, fmt.Errorf("trace: vlt2 block %d payload: %w", r.blocks, err)
	}
	raw, err := r.fetch.decompress(h, r.fetch.encBuf)
	if err != nil {
		return false, fmt.Errorf("trace: vlt2 block %d: %w", r.blocks, err)
	}
	r.dec.reset(raw, h)
	r.blocks++
	r.bytes += blockWireSize(h)
	r.m.blocks.Inc()
	r.m.rawBytes.Add(int64(h.rawLen))
	r.m.encBytes.Add(int64(h.encLen))
	return true, nil
}

// blockWireSize is a block's on-wire size: header plus payload.
func blockWireSize(h *blockHdr2) uint64 {
	return uint64(2+4+uvarintLen(h.count)+uvarintLen(h.rawLen)+uvarintLen(h.encLen)+
		uvarintLen(h.firstPC)+uvarintLen(h.firstAddr)) + h.encLen
}

// footerUvarint reads one uvarint of the footer, folding its raw bytes into
// the running footer CRC.
func (r *Reader2) footerUvarint(crc *uint32) (uint64, error) {
	var scratch [binary.MaxVarintLen64]byte
	n := 0
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return 0, err
		}
		scratch[n] = b
		n++
		if b < 0x80 {
			break
		}
		if n == len(scratch) {
			return 0, fmt.Errorf("%w: footer varint overflow", ErrCorrupt)
		}
	}
	*crc = crc32.Update(*crc, castagnoli, scratch[:n])
	v, k := binary.Uvarint(scratch[:n])
	if k <= 0 {
		return 0, fmt.Errorf("%w: footer varint overflow", ErrCorrupt)
	}
	return v, nil
}

// checkFooter parses the footer (after its kind byte) and the trailer,
// verifying the footer CRC and cross-checking the index against the blocks
// the reader actually decoded: the declared block count, entry contiguity
// from the first block's offset, per-entry record counts, the record total,
// and the trailer's footer offset must all agree with the decoded stream.
func (r *Reader2) checkFooter() error {
	crc := crc32.Update(0, castagnoli, []byte{blockKindFooter})
	nblocks, err := r.footerUvarint(&crc)
	if err != nil {
		return fmt.Errorf("trace: vlt2 footer: %w", err)
	}
	if nblocks != r.blocks {
		return fmt.Errorf("%w: footer declares %d blocks, decoded %d", ErrCorrupt, nblocks, r.blocks)
	}
	next := r.hdrLen
	var counted uint64
	for i := uint64(0); i < nblocks; i++ {
		off, err := r.footerUvarint(&crc)
		if err != nil {
			return fmt.Errorf("trace: vlt2 footer entry %d: %w", i, err)
		}
		size, err := r.footerUvarint(&crc)
		if err != nil {
			return fmt.Errorf("trace: vlt2 footer entry %d: %w", i, err)
		}
		count, err := r.footerUvarint(&crc)
		if err != nil {
			return fmt.Errorf("trace: vlt2 footer entry %d: %w", i, err)
		}
		if off != next {
			return fmt.Errorf("%w: footer entry %d offset %d overlaps or skips (want %d)", ErrCorrupt, i, off, next)
		}
		if size == 0 || count == 0 {
			return fmt.Errorf("%w: footer entry %d is empty", ErrCorrupt, i)
		}
		next = off + size
		counted += count
	}
	footerOff := r.hdrLen + r.bytes
	if next != footerOff {
		return fmt.Errorf("%w: footer entries end at %d, footer starts at %d", ErrCorrupt, next, footerOff)
	}
	total, err := r.footerUvarint(&crc)
	if err != nil {
		return fmt.Errorf("trace: vlt2 footer total: %w", err)
	}
	if total != r.read || counted != r.read {
		return fmt.Errorf("%w: footer declares %d records (entries sum %d), decoded %d", ErrCorrupt, total, counted, r.read)
	}
	r.total = total
	var tail [4 + trailerLen2]byte
	if _, err := io.ReadFull(r.br, tail[:]); err != nil {
		return fmt.Errorf("trace: vlt2 trailer: %w", err)
	}
	if binary.LittleEndian.Uint32(tail[:4]) != crc {
		return fmt.Errorf("trace: vlt2 footer: %w", ErrChecksum)
	}
	if got := binary.LittleEndian.Uint64(tail[4:12]); got != footerOff {
		return fmt.Errorf("%w: trailer footer offset %d, want %d", ErrCorrupt, got, footerOff)
	}
	if string(tail[12:]) != trailerMagic2 {
		return fmt.Errorf("%w: bad trailer magic", ErrCorrupt)
	}
	return nil
}

// Next decodes the next record into the reader's internal record and
// returns it; io.EOF after the final record. The pointer is invalidated by
// the following Next or NextBatch call.
func (r *Reader2) Next() (*Record, error) {
	var one [1]Record
	n, err := r.NextBatch(one[:])
	if n == 0 {
		if err == nil {
			err = io.EOF
		}
		return nil, err
	}
	r.rec = one[0]
	return &r.rec, err
}

// NextBatch decodes up to len(buf) records: the batched form of Next, and
// the fast path — records decode straight from the staged block payload
// into buf.
func (r *Reader2) NextBatch(buf []Record) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n := 0
	for n < len(buf) {
		if r.dec.remaining() == 0 {
			if r.done {
				break
			}
			more, err := r.loadBlock()
			if err != nil {
				r.err = err
				if n > 0 {
					return n, nil
				}
				return 0, err
			}
			if !more {
				break
			}
		}
		k, err := r.dec.decodeInto(buf[n:])
		n += k
		r.read += uint64(k)
		r.m.records.Add(int64(k))
		if err != nil {
			r.err = fmt.Errorf("trace: vlt2 block %d: %w", r.blocks-1, err)
			if n > 0 {
				return n, nil
			}
			return 0, r.err
		}
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}
