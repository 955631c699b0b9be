package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"lvp/internal/isa"
)

// genRecords builds a pseudo-realistic record sequence covering every shape
// the codec distinguishes: sequential and branchy PCs, strided and jumping
// addresses, zero and non-zero immediates/values, every load class.
func genRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, 0, n)
	pc := uint64(0x10000)
	addr := uint64(0x200000)
	for len(recs) < n {
		r := Record{PC: pc, Rd: isa.Reg(rng.Intn(32)), Ra: isa.Reg(rng.Intn(32)), Rb: isa.Reg(rng.Intn(32))}
		switch rng.Intn(10) {
		case 0, 1, 2: // load
			r.Op = []isa.Op{isa.LB, isa.LH, isa.LW, isa.LD, isa.FLD}[rng.Intn(5)]
			r.Class = isa.LoadClass(1 + rng.Intn(int(isa.NumLoadClasses)-1))
			r.Size = uint8(1 << rng.Intn(4))
			r.Imm = int64(rng.Intn(64)) * 8
			addr += uint64(rng.Intn(3)) * 8
			if rng.Intn(16) == 0 {
				addr = uint64(rng.Uint32()) // working-set jump
			}
			r.Addr = addr
			r.Value = rng.Uint64() >> uint(rng.Intn(64))
		case 3: // store
			r.Op = []isa.Op{isa.SB, isa.SW, isa.SD, isa.FSD}[rng.Intn(4)]
			r.Size = uint8(1 << rng.Intn(4))
			r.Imm = -int64(rng.Intn(32)) * 8
			r.Addr = addr + uint64(rng.Intn(256))
			r.Value = uint64(rng.Intn(1000))
		case 4: // branch
			r.Op = []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.JAL, isa.JALR}[rng.Intn(5)]
			r.Taken = rng.Intn(2) == 0
			delta := int64(rng.Intn(4096)-2048) * 4
			r.Imm = int64(pc) + delta
			if r.Taken {
				r.Targ = uint64(int64(pc) + delta)
			} else {
				r.Targ = pc + 4
			}
		default: // ALU
			r.Op = []isa.Op{isa.ADD, isa.ADDI, isa.XOR, isa.MUL, isa.FADD, isa.NOP}[rng.Intn(6)]
			if r.Op == isa.ADDI {
				r.Imm = int64(rng.Intn(2000) - 1000)
			}
			if rng.Intn(3) > 0 {
				r.Value = rng.Uint64() >> uint(rng.Intn(64))
			}
		}
		recs = append(recs, r)
		if r.IsBranch() {
			pc = r.Targ
		} else {
			pc += 4
		}
	}
	return recs
}

func encode2(t *testing.T, tr *Trace, opts Writer2Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write2(&buf, tr, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func drain(t *testing.T, d Decoder) []Record {
	t.Helper()
	var recs []Record
	buf := make([]Record, 300) // deliberately not a divisor of block size
	for {
		n, err := d.NextBatch(buf)
		recs = append(recs, buf[:n]...)
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatalf("NextBatch after %d records: %v", len(recs), err)
		}
	}
}

// TestVLT2RoundTrip pins encode→decode identity over both codecs, block
// sizes that do and do not divide the record count, and the empty trace.
func TestVLT2RoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		opts Writer2Options
	}{
		{"raw", 10000, Writer2Options{}},
		{"flate", 10000, Writer2Options{Codec: CodecFlate}},
		{"tiny-blocks", 1000, Writer2Options{BlockRecords: 7}},
		{"one-block", 100, Writer2Options{BlockRecords: 4096}},
		{"single-record", 1, Writer2Options{}},
		{"empty", 0, Writer2Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := &Trace{Name: "rt", Target: "ppc", Records: genRecords(tc.n, 42)}
			enc := encode2(t, want, tc.opts)
			r2, err := NewReader2(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			if r2.Name() != want.Name || r2.Target() != want.Target {
				t.Fatalf("header %q/%q, want %q/%q", r2.Name(), r2.Target(), want.Name, want.Target)
			}
			got := drain(t, r2)
			if len(got) != len(want.Records) {
				t.Fatalf("decoded %d records, want %d", len(got), len(want.Records))
			}
			for i := range got {
				if got[i] != want.Records[i] {
					t.Fatalf("record %d drift:\n got %+v\nwant %+v", i, got[i], want.Records[i])
				}
			}
			if r2.Count() != uint64(tc.n) {
				t.Fatalf("Count after drain = %d, want %d", r2.Count(), tc.n)
			}
		})
	}
}

// TestVLT2NextMatchesNextBatch pins the per-record path against the batched
// path on the same input.
func TestVLT2NextMatchesNextBatch(t *testing.T) {
	tr := &Trace{Name: "nm", Target: "axp", Records: genRecords(3000, 7)}
	enc := encode2(t, tr, Writer2Options{BlockRecords: 512})
	r2, err := NewReader2(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	for {
		r, err := r2.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, *r)
	}
	if !reflect.DeepEqual(got, tr.Records) {
		t.Fatal("Next sequence differs from the written records")
	}
}

// TestVLT2FlateShrinks pins the size story: a flate-compressed encoding of
// a realistic trace must be smaller than both its raw VLT2 and its VLT1
// encoding.
func TestVLT2FlateShrinks(t *testing.T) {
	tr := &Trace{Name: "sz", Target: "ppc", Records: genRecords(50000, 3)}
	v1 := encodeTrace(tr)
	raw := encode2(t, tr, Writer2Options{})
	fl := encode2(t, tr, Writer2Options{Codec: CodecFlate})
	if len(fl) >= len(raw) {
		t.Fatalf("flate encoding %d B not smaller than raw %d B", len(fl), len(raw))
	}
	if len(fl) >= len(v1) {
		t.Fatalf("flate encoding %d B not smaller than VLT1 %d B", len(fl), len(v1))
	}
	t.Logf("sizes: vlt1=%d vlt2/raw=%d vlt2/flate=%d (%.1f%% of vlt1)",
		len(v1), len(raw), len(fl), 100*float64(len(fl))/float64(len(v1)))
}

// batchDecodeCase opens one VLT2 decoder over one block codec's encoding.
type batchDecodeCase struct {
	name  string // "<decoder>/<codec>"
	codec BlockCodec
	size  int // encoded bytes
	open  func() (Decoder, error)
}

// batchDecodeCases is every VLT2 decoder over every block codec of tr.
func batchDecodeCases(tr *Trace) []batchDecodeCase {
	var cases []batchDecodeCase
	for _, codec := range []BlockCodec{CodecRaw, CodecFlate} {
		enc := encodeVLT2(tr, Writer2Options{Codec: codec})
		cases = append(cases,
			batchDecodeCase{"reader2/" + codec.String(), codec, len(enc), func() (Decoder, error) { return NewReader2(bytes.NewReader(enc)) }},
			batchDecodeCase{"indexed/" + codec.String(), codec, len(enc), func() (Decoder, error) { return NewIndexedReaderBytes(enc) }})
	}
	return cases
}

// --- benchmarks: the VLT2 encode and batched decode paths ---

func benchTraceV2(b *testing.B, n int) *Trace {
	b.Helper()
	return &Trace{Name: "bench", Target: "ppc", Records: genRecords(n, 99)}
}

// BenchmarkVLT2DecodeBatch drains the trace in 256-record batches with
// each decoder over each block codec.
func BenchmarkVLT2DecodeBatch(b *testing.B) {
	tr := benchTraceV2(b, 1<<17)
	out := make([]Record, 256)
	for _, c := range batchDecodeCases(tr) {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(c.size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := c.open()
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := d.NextBatch(out); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr.Records)), "ns/rec")
		})
	}
}

func BenchmarkVLT2Encode(b *testing.B) {
	tr := benchTraceV2(b, 1<<17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Write2(io.Discard, tr, Writer2Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr.Records)), "ns/rec")
}
