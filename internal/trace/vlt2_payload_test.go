package trace

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lvp/internal/isa"
)

// payloadRecs is the block the payload-rule cases forge: six records whose
// every varint is one byte, so each field sits at a fixed offset within its
// record, then ALU filler that makes the block long enough for a decoder's
// whole-record reads to stay inside the payload.
//
//	0 ADD  hdr dpc vlen val
//	1 LD   hdr dpc imm size daddr vlen val val
//	2 ADDI hdr dpc imm vlen val
//	3 BEQ  hdr dpc imm targ
//	4 ADD  hdr dpc vlen val val
//	5 SD   hdr dpc size daddr vlen val
func payloadRecs() []Record {
	const pc = 0x1000
	recs := []Record{
		{PC: pc, Op: isa.ADD, Rd: 3, Ra: 1, Rb: 2, Value: 0x55},
		{PC: pc + 4, Op: isa.LD, Rd: 4, Ra: 5, Imm: 8, Class: isa.LoadIntData, Size: 8, Addr: 0x2000, Value: 0x1234},
		{PC: pc + 8, Op: isa.ADDI, Rd: 6, Ra: 6, Imm: 3, Value: 0x77},
		{PC: pc + 12, Op: isa.BEQ, Ra: 1, Rb: 2, Imm: pc + 28, Taken: true, Targ: pc + 28},
		{PC: pc + 28, Op: isa.ADD, Rd: 7, Ra: 1, Rb: 1, Value: 0x100},
		{PC: pc + 32, Op: isa.SD, Ra: 8, Rb: 7, Size: 8, Addr: 0x2010, Value: 5},
	}
	for i := 0; i < 100; i++ {
		recs = append(recs, Record{PC: pc + 36 + 4*uint64(i), Op: isa.ADD, Rd: 9, Ra: 9, Rb: 1, Value: uint64(i + 1)})
	}
	return recs
}

// payloadRule is one validity rule of the block payload: edit breaks it in
// block 0 of the payloadRecs file, after which the decoder must return
// exactly decoded records and then ErrCorrupt naming record named.
type payloadRule struct {
	name    string
	edit    func(h *blockHdr2, p []byte) []byte
	decoded int
	named   int
}

// payloadRules lists one case per payload rule. off[i] is record i's
// offset in the payload.
func payloadRules(off []int) []payloadRule {
	last := len(off) - 1
	// Ten bytes with the continuation bit on the first nine and a tenth
	// byte past bit 63.
	overlong := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	setByte := func(i, b int) func(h *blockHdr2, p []byte) []byte {
		return func(h *blockHdr2, p []byte) []byte { p[i] = byte(b); return p }
	}
	setField := func(rec int, bits uint32) func(h *blockHdr2, p []byte) []byte {
		return func(h *blockHdr2, p []byte) []byte {
			o := off[rec]
			fld := uint32(p[o+1]) | uint32(p[o+2])<<8 | uint32(p[o+3])<<16 | bits
			p[o+1], p[o+2], p[o+3] = byte(fld), byte(fld>>8), byte(fld>>16)
			return p
		}
	}
	badVarint := func(i int) func(h *blockHdr2, p []byte) []byte {
		return func(h *blockHdr2, p []byte) []byte {
			return append(p[:i:i], append(overlong, p[i+1:]...)...)
		}
	}
	return []payloadRule{
		{"unknown-opcode", setByte(off[2], 0x7f), 2, 2},
		{"reserved-field-bits", setField(3, 1<<20), 3, 3},
		{"load-class-range", setField(1, 7<<fClass), 1, 1},
		{"bad-pc-varint", badVarint(off[2] + 4), 2, 2},
		{"bad-imm-varint", badVarint(off[2] + 5), 2, 2},
		{"bad-addr-varint", badVarint(off[1] + 7), 1, 1},
		{"bad-targ-varint", badVarint(off[3] + 6), 3, 3},
		{"imm-flag-zero-imm", setByte(off[2]+5, 0), 2, 2},
		{"value-flag-memory", setField(1, 1<<fHasVal), 1, 1},
		{"zero-value", setByte(off[2]+6, 0), 2, 2},
		{"non-minimal-value", setByte(off[4]+7, 0), 4, 4},
		{"non-minimal-memory-value", setByte(off[1]+10, 0), 1, 1},
		{"over-long-value", setByte(off[4]+5, 9), 4, 4},
		{"first-record-not-firstPC", setByte(off[0]+4, 8), 0, 0},
		{"trailing-bytes", func(h *blockHdr2, p []byte) []byte { return append(p, 0) }, last + 1, last},
		{"count-past-payload", func(h *blockHdr2, p []byte) []byte { h.count++; return p }, last + 1, last + 1},
		{"cut-mid-record", func(h *blockHdr2, p []byte) []byte { return p[:off[last]+3] }, last, last},
		{"cut-mid-value", func(h *blockHdr2, p []byte) []byte { return p[:off[last]+6] }, last, last},
		// The store's fields and value word all come from past the end:
		// the reads that reach furthest beyond a payload.
		{"cut-after-store-opcode", func(h *blockHdr2, p []byte) []byte { h.count = 6; return p[:off[5]+1] }, 5, 5},
	}
}

// payloadBase is the payloadRecs file (one raw block), its block header
// and payload, and each record's offset in the payload.
func payloadBase(t testing.TB) (recs []Record, enc []byte, h blockHdr2, p []byte, off []int) {
	recs = payloadRecs()
	enc = encodeRecordsVLT2("rules", "ppc", recs, Writer2Options{})
	h, p = block0(enc)
	var re []byte
	prevPC, prevAddr := recs[0].PC, recs[1].Addr
	for i := range recs {
		off = append(off, len(re))
		re, prevPC, prevAddr = appendRecord2(re, &recs[i], prevPC, prevAddr)
	}
	if !bytes.Equal(re, p) {
		t.Fatal("payloadRecs: block 0 is not the records' encoding")
	}
	// The offsets in payloadRules assume one-byte varints throughout.
	for i, n := range []int{7, 11, 8, 7, 8, 9} {
		if off[i+1]-off[i] != n {
			t.Fatalf("payloadRecs: record %d encodes in %d bytes, want %d", i, off[i+1]-off[i], n)
		}
	}
	return recs, enc, h, p, off
}

// TestVLT2PayloadRules breaks each rule of the block payload in turn, with
// the block CRC re-signed so the decoder itself must catch it: every case
// decodes the records before the broken one and then returns ErrCorrupt
// naming it, never a panic and never a wrong record.
func TestVLT2PayloadRules(t *testing.T) {
	if isa.NumOps > 0x7f || isa.NumLoadClasses > 7 {
		t.Fatal("opcode 0x7f or load class 7 is defined; pick other out-of-range values")
	}
	recs, enc, _, _, off := payloadBase(t)
	for _, rule := range payloadRules(off) {
		t.Run(rule.name, func(t *testing.T) {
			ir, err := NewIndexedReaderBytes(forgeBlock0(enc, rule.edit))
			if err != nil {
				t.Fatal(err)
			}
			for _, bufSize := range []int{1, 256} {
				if err := ir.SeekRecord(0); err != nil {
					t.Fatal(err)
				}
				got, err := drainBatch(ir, bufSize)
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("batches of %d: error %v, want ErrCorrupt", bufSize, err)
				}
				if want := fmt.Sprintf("record %d", rule.named); !strings.Contains(err.Error(), want) {
					t.Fatalf("batches of %d: error %q does not name %s", bufSize, err, want)
				}
				if !slices.Equal(got, recs[:rule.decoded]) {
					t.Fatalf("batches of %d: %d records before the error, want the first %d", bufSize, len(got), rule.decoded)
				}
			}
		})
	}
}

// payloadFile wraps payload as the one raw block of a VLT2 file whose
// header declares count records, with a valid CRC and index.
func payloadFile(base, payload []byte, count uint64) []byte {
	return forgeBlock0(base, func(h *blockHdr2, _ []byte) []byte {
		h.count = count
		return payload
	})
}

// FuzzVLT2Payload feeds arbitrary block payloads and record counts to the
// record decoder, each wrapped in a one-block raw file with a valid CRC so
// the input gets past the checksum that stops FuzzVLT2RoundTrip's mutations.
// The invariants:
//
//  1. the decoder never panics — a malformed payload comes back as an
//     error;
//  2. accepted input holds count records and is canonical: re-encoding
//     them under each codec and decoding again reproduces them exactly.
func FuzzVLT2Payload(f *testing.F) {
	_, base, h, p, off := payloadBase(f)
	f.Add(p, uint16(h.count))
	for _, rule := range payloadRules(off) {
		h2 := h
		f.Add(rule.edit(&h2, bytes.Clone(p)), uint16(h2.count))
	}
	gh, gp := block0(encodeRecordsVLT2("seed", "ppc", genRecords(300, 7), Writer2Options{BlockRecords: 300}))
	f.Add(gp, uint16(gh.count))

	f.Fuzz(func(t *testing.T, payload []byte, count uint16) {
		ir, err := NewIndexedReaderBytes(payloadFile(base, payload, uint64(count)))
		if err != nil {
			return
		}
		recs, err := drainBatch(ir, 64)
		if err != nil {
			return
		}
		if len(recs) != int(count) {
			t.Fatalf("accepted %d records from a block declaring %d", len(recs), count)
		}
		for _, opts := range fuzzCodecs[:2] {
			re, err := NewIndexedReaderBytes(encodeRecordsVLT2("fuzz", "ppc", recs, opts))
			if err != nil {
				t.Fatalf("re-encode (%v) rejected: %v", opts, err)
			}
			rerecs, err := drainBatch(re, 64)
			if err != nil {
				t.Fatalf("re-encode (%v) decode failed: %v", opts, err)
			}
			if !reflect.DeepEqual(rerecs, recs) {
				t.Fatalf("re-encode (%v) changed the records", opts)
			}
		}
	})
}
