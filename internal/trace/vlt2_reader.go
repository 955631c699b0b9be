package trace

import (
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

// VLT2 block decoding: header validation, payload decompression and
// checksum, and the record decoder. The hot path is the blockDec loop, which
// the IndexedReader runs to decode records straight out of the reused,
// zero-padded payload buffer into the caller's batch buffer — no bufio
// bookkeeping, no per-byte interface dispatch, no per-record copy.

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

// payloadPad is the zeroed headroom blockReader keeps after every payload.
// decodeInto reads no field past its widest encoding (uvarintFast's word
// load spans at most a 10-byte varint, the value load at most 8 value
// bytes), so a record reads at most maxEncRecord2 bytes from its first
// byte, and one that starts inside the payload reads in bounds however
// malformed it is.
const payloadPad = maxEncRecord2

// blockDec decodes records from one uncompressed block payload. It is a
// value type so the reader can reset it per block without allocation.
type blockDec struct {
	p        []byte // the payload, then payloadPad zero bytes
	end      int    // payload length
	off      int
	n        int // records decoded
	count    int // records in the block
	prevPC   uint64
	prevAddr uint64
	firstPC  uint64
}

// reset stages the block h whose payload p holds, followed by its
// payloadPad bytes of headroom.
func (d *blockDec) reset(p []byte, h *blockHdr2) {
	*d = blockDec{p: p, end: int(h.rawLen), count: int(h.count), prevPC: h.firstPC, prevAddr: h.firstAddr, firstPC: h.firstPC}
}

// remaining reports how many records are still undecoded in the block.
func (d *blockDec) remaining() int { return d.count - d.n }

// uvarintFast decodes the uvarint at p[off:] in one 64-bit load: the first
// stop byte is found with a mask, the value bytes are kept with a
// lowest-set-bit mask, and all eight 7-bit groups extract as a shift/mask
// tree — branchless over 1..8-byte varints, so varying widths cost no
// mispredictions. 9- and 10-byte varints (deltas and immediates near ±2^63)
// take a tail that reads up to two more bytes. The caller guarantees
// off+10 <= len(p), which blockDec's headroom does. A malformed varint
// (more than 10 bytes, or a 10th byte overflowing uint64) returns a
// negative offset.
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

// decodeInto decodes up to len(buf) records from the block into buf and
// returns how many it produced. Errors name the record's index within the
// block and its payload offset; callers add file-level context. After the
// final record it verifies the payload was consumed exactly.
//
// The payload's zero headroom puts every byte and word access below in
// bounds for a record that starts inside the payload, so no field checks
// for truncation. A record commits only once it parses and ends inside the
// payload: one compare per record. A record cut short by the end of the
// payload reads zeros past it, and fails as truncated or on the first rule
// those zeros break.
func (d *blockDec) decodeInto(buf []Record) (int, error) {
	p, end, off := d.p, d.end, d.off
	// The delta state lives in locals: left in d, each record's PC would
	// round-trip through a store-to-load forward on its serial dependency
	// chain (pc[i+1] = pc[i] + delta).
	prevPC, prevAddr, n := d.prevPC, d.prevAddr, d.n
	k, lim := 0, min(len(buf), d.count-n)
	for ; k < lim; k++ {
		x4 := binary.LittleEndian.Uint32(p[off:])
		b0 := byte(x4)
		op := b0 & 0x7f
		fld := x4 >> 8
		class := fld >> fClass & 7
		if int(op) >= isa.NumOps {
			return k, recordErr(n, off, "unknown opcode")
		}
		if fld>>20 != 0 {
			return k, recordErr(n, off, "reserved field bits set")
		}
		if class >= uint32(isa.NumLoadClasses) {
			return k, recordErr(n, off, "load class out of range")
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
		// Each field reads its first byte inline — deltas are one byte in
		// the common case and the branch predicts well — picks up a second
		// byte inline, and hands 3+-byte varints to uvarintFast.
		v = uint64(p[o])
		o++
		if v >= 0x80 {
			if b := uint64(p[o]); b < 0x80 {
				v = v&0x7f | b<<7
				o++
			} else if v, o = uvarintFast(p, o-1); o < 0 {
				return k, recordErr(n, off, "bad pc delta varint")
			}
		}
		pc = prevPC + uint64(unzigzag(v))
		if n == 0 && pc != d.firstPC {
			return k, recordErr(n, off, "first record disagrees with firstPC anchor")
		}
		if fld&(1<<fHasImm) != 0 {
			v = uint64(p[o])
			o++
			if v >= 0x80 {
				if b := uint64(p[o]); b < 0x80 {
					v = v&0x7f | b<<7
					o++
				} else if v, o = uvarintFast(p, o-1); o < 0 {
					return k, recordErr(n, off, "bad imm varint")
				}
			}
			imm = unzigzag(v)
			if shape&shBranch != 0 {
				imm += int64(pc)
			}
			if imm == 0 {
				return k, recordErr(n, off, "imm flag set on zero immediate")
			}
		}
		hasVal := fld&(1<<fHasVal) != 0
		addr = prevAddr
		if shape&shMem != 0 {
			if hasVal {
				return k, recordErr(n, off, "value flag on a memory record")
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
					return k, recordErr(n, off, "bad addr delta varint")
				}
			}
			addr += uint64(unzigzag(v))
		}
		if shape&shMem != 0 || hasVal {
			nv = int(p[o])
			o++
			if nv > 8 || nv > 0 && p[o+nv-1] == 0 {
				return k, recordErr(n, off, "bad value field")
			}
			if nv == 0 && hasVal {
				return k, recordErr(n, off, "value flag set on zero value")
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
					return k, recordErr(n, off, "bad branch target varint")
				}
			}
			targ = pc + uint64(unzigzag(v))
		}
		if o > end {
			return k, recordErr(n, off, "truncated record")
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
		n++
		off = o
	}
	d.off, d.prevPC, d.prevAddr, d.n = off, prevPC, prevAddr, n
	if n == d.count && off != end {
		return k, fmt.Errorf("%w: block has %d trailing payload bytes after record %d", ErrCorrupt, end-off, n-1)
	}
	return k, nil
}

// recordErr reports record n of a block, at payload offset off, as corrupt.
func recordErr(n, off int, msg string) error {
	return fmt.Errorf("%w: record %d (payload offset %d): %s", ErrCorrupt, n, off, msg)
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
// the decompressed bytes and the flate state. Both are reused across
// blocks, so steady-state reads allocate nothing.
type blockReader struct {
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

// decompress materialises a block's payload from its on-wire bytes into the
// reused buffer — inflating a flate block, copying a raw one — followed by
// payloadPad zero bytes of headroom for blockDec, and verifies the length
// and CRC. It returns the payload and its headroom; the slice is valid
// until the next call.
func (br *blockReader) decompress(h *blockHdr2, enc []byte) ([]byte, error) {
	br.rawBuf = grow(br.rawBuf, int(h.rawLen)+payloadPad)
	raw := br.rawBuf[:h.rawLen]
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
		if _, err := io.ReadFull(br.fr, raw); err != nil {
			return nil, fmt.Errorf("%w: flate payload: %v", ErrCorrupt, err)
		}
		// The compressed stream must end exactly at rawLen bytes.
		var one [1]byte
		if n, _ := br.fr.Read(one[:]); n != 0 {
			return nil, fmt.Errorf("%w: flate payload longer than declared %d bytes", ErrCorrupt, h.rawLen)
		}
	} else {
		copy(raw, enc)
	}
	clear(br.rawBuf[h.rawLen:])
	br.hdrBuf = h.appendWire(br.hdrBuf[:0])
	if crc32.Update(crc32.Checksum(br.hdrBuf, castagnoli), castagnoli, raw) != h.crc {
		return nil, ErrChecksum
	}
	return br.rawBuf, nil
}
