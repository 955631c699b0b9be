package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fuzzCodecs covers both codecs at the default and an awkward block size,
// so the fuzz and hostile-input gates exercise each decode path (varint,
// flate, and multi-block boundaries).
var fuzzCodecs = []Writer2Options{
	{},
	{Codec: CodecFlate},
	{BlockRecords: 7},
	{Codec: CodecFlate, BlockRecords: 7},
}

func encodeVLT2(tr *Trace, opts Writer2Options) []byte {
	var buf bytes.Buffer
	if err := Write2(&buf, tr, opts); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// forgeCodec rewrites block 0's codec byte and re-signs the block CRC over
// the forged header and the block's uncompressed payload, so the codec byte
// is the input's only defect.
func forgeCodec(enc []byte, codec byte) []byte {
	ir, err := NewIndexedReaderBytes(enc)
	if err != nil {
		panic(err)
	}
	e := ir.idx[0]
	blk := enc[e.off : e.off+e.size]
	h, payloadOff, err := parseBlockHdr(blk)
	if err != nil {
		panic(err)
	}
	var br blockReader
	raw, err := br.decompress(&h, blk[payloadOff:])
	if err != nil {
		panic(err)
	}
	h.codec = BlockCodec(codec)
	hdr := h.appendWire(nil)
	out := bytes.Clone(enc)
	copy(out[e.off:], hdr)
	binary.LittleEndian.PutUint32(out[e.off+uint64(len(hdr)):],
		crc32.Update(crc32.Checksum(hdr, castagnoli), castagnoli, raw))
	return out
}

// FuzzVLT2RoundTrip feeds arbitrary bytes to the VLT2 decoder. The
// invariants:
//
//  1. the indexed reader never panics — hostile input must come back as a
//     clean error;
//  2. any accepted input is canonical: re-encoding the decoded records and
//     decoding again reproduces them exactly.
func FuzzVLT2RoundTrip(f *testing.F) {
	seed := FromRecords("seed", "ppc", genRecords(300, 7))
	for _, opts := range fuzzCodecs {
		f.Add(encodeVLT2(seed, opts))
	}
	// Codec bytes 2 and 3 named the retired fixed-width codecs; both must
	// be rejected.
	f.Add(forgeCodec(encodeVLT2(seed, Writer2Options{}), 2))
	f.Add(forgeCodec(encodeVLT2(seed, Writer2Options{Codec: CodecFlate}), 3))
	f.Add(encodeVLT2(&Trace{Name: "empty", Target: "axp"}, Writer2Options{}))
	valid := encodeVLT2(seed, Writer2Options{BlockRecords: 64})
	f.Add([]byte{})
	f.Add([]byte("VLT2"))
	f.Add(valid[:len(valid)-1])             // truncated trailer
	f.Add(valid[:len(valid)/2])             // truncated mid-block
	f.Add(append(bytes.Clone(valid), 0xAA)) // trailing garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		ir, err := NewIndexedReaderBytes(data)
		if err != nil {
			return
		}
		recs, err := drainBatch(ir, 300)
		if err != nil {
			return
		}
		// Canonicality: accepted input must survive a re-encode round trip
		// under each payload codec.
		tr := FromRecords(ir.Name(), ir.Target(), recs)
		for _, opts := range fuzzCodecs[:2] {
			re, err := NewIndexedReaderBytes(encodeVLT2(tr, opts))
			if err != nil {
				t.Fatalf("re-encode (%v) rejected: %v", opts, err)
			}
			rerecs, err := drainBatch(re, 300)
			if err != nil {
				t.Fatalf("re-encode (%v) decode failed: %v", opts, err)
			}
			if !reflect.DeepEqual(rerecs, recs) {
				t.Fatalf("re-encode (%v) changed the records", opts)
			}
		}
	})
}

// rebuiltFooter re-emits enc with its footer index replaced by entries,
// recomputing the footer CRC so only the index semantics — not the
// checksum — are under test.
func rebuiltFooter(enc []byte, ir *IndexedReader, entries []indexEnt2, total uint64) []byte {
	out := bytes.Clone(enc[:ir.fOff])
	f := []byte{blockKindFooter}
	f = appendUvarint(f, uint64(len(entries)))
	for _, e := range entries {
		f = appendUvarint(f, e.off)
		f = appendUvarint(f, e.size)
		f = appendUvarint(f, e.count)
	}
	f = appendUvarint(f, total)
	out = append(out, f...)
	out = appendUint32LE(out, crc32.Checksum(f, castagnoli))
	out = appendUint64LE(out, ir.fOff)
	out = append(out, trailerMagic2...)
	return out
}

// corpusSeed decodes one checked-in FuzzVLT2RoundTrip corpus entry.
func corpusSeed(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzVLT2RoundTrip", name))
	if err != nil {
		t.Fatal(err)
	}
	lit, okPrefix := strings.CutPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
	lit, okSuffix := strings.CutSuffix(lit, ")")
	if !okPrefix || !okSuffix {
		t.Fatalf("%s: not a one-[]byte corpus entry", name)
	}
	b, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(b)
}

// TestVLT2Hostile corrupts a valid multi-block file in every structurally
// interesting way and requires a clean error — never a panic, never silent
// wrong data — from the indexed reader, in every case.
func TestVLT2Hostile(t *testing.T) {
	// The valid-fixed corpus entry is a well-formed file of the retired
	// fixed-width codec: the reader must reject it as corrupt.
	t.Run("corpus-valid-fixed", func(t *testing.T) {
		data := corpusSeed(t, "valid-fixed")
		d, err := NewIndexedReaderBytes(data)
		if err == nil {
			_, err = drainBatch(d, 300)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("indexed reader: %v, want ErrCorrupt", err)
		}
	})

	tr := FromRecords("hostile", "ppc", genRecords(500, 11))
	for _, base := range []struct {
		name string
		opts Writer2Options
	}{
		{"varint", Writer2Options{BlockRecords: 64}},
		{"flate", Writer2Options{Codec: CodecFlate, BlockRecords: 64}},
	} {
		t.Run(base.name, func(t *testing.T) {
			enc := encodeVLT2(tr, base.opts)
			ir, err := NewIndexedReaderBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			idx := append([]indexEnt2(nil), ir.idx...)
			total := ir.total
			if len(idx) < 3 {
				t.Fatalf("want ≥3 blocks, got %d", len(idx))
			}
			flip := func(pos uint64) []byte {
				m := bytes.Clone(enc)
				m[pos] ^= 0x40
				return m
			}
			overlap := append([]indexEnt2(nil), idx...)
			overlap[1] = overlap[0] // entry 1 restates entry 0: overlapping ranges
			gap := append([]indexEnt2(nil), idx...)
			gap[1].off++ // entry 1 skips a byte
			lyingSize := append([]indexEnt2(nil), idx...)
			lyingSize[0].size += lyingSize[1].size // entry 0 swallows entry 1
			// Entry 0's size wraps off+size around 2^64 to land on offset
			// 5, where a forged entry 1 resumes and runs to the footer.
			wrap := []indexEnt2{
				{off: idx[0].off, size: -idx[0].off + 5, count: 1},
				{off: 5, size: ir.fOff - 5, count: total - 1},
			}

			// hdr0/hdr1 are the blocks' header lengths. The payload flip
			// aims mid-payload (a flip in a DEFLATE stream's final byte
			// can land in dead padding bits); the anchor flip aims at the
			// byte just before block 1's CRC — the last byte of the
			// firstAddr anchor, which only the header-covering CRC can
			// catch.
			_, hdr0, err := parseBlockHdr(enc[idx[0].off : idx[0].off+idx[0].size])
			if err != nil {
				t.Fatal(err)
			}
			_, hdr1, err := parseBlockHdr(enc[idx[1].off : idx[1].off+idx[1].size])
			if err != nil {
				t.Fatal(err)
			}

			cases := []struct {
				name string
				data []byte
				want error // sentinel the error must unwrap to, if non-nil
			}{
				{"truncated-mid-block", enc[:idx[1].off+idx[1].size/2], nil},
				{"truncated-trailer", enc[:len(enc)-3], nil},
				{"payload-flip", flip(idx[0].off + uint64(hdr0) + (idx[0].size-uint64(hdr0))/2), ErrCorrupt},
				{"header-anchor-flip", flip(idx[1].off + uint64(hdr1) - 5), ErrCorrupt},
				{"footer-off-zero", overwriteFooterOff(enc, 0), ErrCorrupt},
				{"footer-off-into-block", overwriteFooterOff(enc, idx[0].off), nil},
				{"index-overlap", rebuiltFooter(enc, ir, overlap, total), ErrCorrupt},
				{"index-gap", rebuiltFooter(enc, ir, gap, total), ErrCorrupt},
				{"index-lying-size", rebuiltFooter(enc, ir, lyingSize, total), ErrCorrupt},
				{"footer-lying-total", rebuiltFooter(enc, ir, idx, total+1), ErrCorrupt},
				{"footer-size-overflow", rebuiltFooter(enc, ir, wrap, total), ErrCorrupt},
				{"codec-byte-2", forgeCodec(enc, 2), ErrCorrupt},
				{"codec-byte-3", forgeCodec(enc, 3), ErrCorrupt},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					d, err := NewIndexedReaderBytes(tc.data)
					if err == nil {
						if _, err = drainBatch(d, 300); err == nil {
							t.Fatal("indexed reader accepted hostile input")
						}
					}
					if tc.want != nil && !errors.Is(err, tc.want) {
						t.Fatalf("indexed reader error %v does not unwrap to %v", err, tc.want)
					}
				})
			}
		})
	}
}

func appendUint32LE(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendUint64LE(dst []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(v>>(8*i)))
	}
	return dst
}

// overwriteFooterOff rewrites the trailer's footer offset in place.
func overwriteFooterOff(enc []byte, off uint64) []byte {
	m := bytes.Clone(enc)
	tail := m[len(m)-trailerLen2:]
	for i := 0; i < 8; i++ {
		tail[i] = byte(off >> (8 * i))
	}
	return m
}
