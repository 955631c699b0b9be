package trace

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

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

// TestVLT2RoundTrip pins encode→decode identity over both codecs, block
// sizes that do and do not divide the record count, and the empty trace,
// each decoded in batches of 1, 7 and 256 records.
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
			want := FromRecords("rt", "ppc", genRecords(tc.n, 42))
			enc := encode2(t, want, tc.opts)
			for _, bufSize := range []int{1, 7, 256} {
				ir, err := NewIndexedReaderBytes(enc)
				if err != nil {
					t.Fatal(err)
				}
				if ir.Name() != want.Name || ir.Target() != want.Target {
					t.Fatalf("header %q/%q, want %q/%q", ir.Name(), ir.Target(), want.Name, want.Target)
				}
				if ir.Count() != uint64(tc.n) {
					t.Fatalf("Count = %d, want %d", ir.Count(), tc.n)
				}
				got, err := drainBatch(ir, bufSize)
				if err != nil {
					t.Fatalf("batches of %d: %v", bufSize, err)
				}
				if len(got) != want.Len() {
					t.Fatalf("batches of %d: decoded %d records, want %d", bufSize, len(got), want.Len())
				}
				wantRecs := want.Expand()
				for i := range got {
					if got[i] != wantRecs[i] {
						t.Fatalf("batches of %d: record %d drift:\n got %+v\nwant %+v", bufSize, i, got[i], wantRecs[i])
					}
				}
			}
		})
	}
}

// TestVLT2WideVarints round-trips records whose PC, Imm, Addr and Targ
// deltas encode as 9- and 10-byte varints (PC jumps near ±2^63, Imm
// math.MinInt64 and math.MaxInt64), under both codecs, at block sizes that
// put them at block heads and tails, in batches of 1 and 256.
func TestVLT2WideVarints(t *testing.T) {
	const pc0 = 0x1000
	addr0 := uint64(0x10)
	pc1 := uint64(pc0 + 1<<62) // dpc 2^62: 10 bytes
	pc2 := pc1 + 1<<56         // dpc 2^56: 9 bytes
	pc3 := pc2 + 1<<63         // dpc -2^63: 10 bytes
	pc5 := pc3 + 4 + 1<<61     // the branch's target, 2^61 on: 9 bytes
	pc6 := pc5 + 4 + 1<<57     // dpc 2^57: 9 bytes
	pc7 := pc6 + 1<<63 + 1<<62 // dpc -2^62: 9 bytes
	recs := []Record{
		{PC: pc0, Op: isa.ADDI, Rd: 1, Imm: math.MinInt64, Value: 1},
		{PC: pc1, Op: isa.ADDI, Rd: 2, Imm: 1 << 56, Value: 2},
		{PC: pc2, Op: isa.LD, Rd: 3, Imm: math.MaxInt64, Class: isa.LoadIntData, Size: 8, Addr: addr0, Value: math.MaxUint64},
		{PC: pc3, Op: isa.SD, Ra: 3, Rb: 4, Size: 8, Addr: addr0 + 1<<62, Value: 3},
		{PC: pc3 + 4, Op: isa.BEQ, Ra: 1, Rb: 2, Imm: int64(pc3 + 4 + 1<<61), Taken: true, Targ: pc3 + 4 + 1<<61},
		{PC: pc5, Op: isa.LD, Rd: 5, Class: isa.LoadDataAddr, Size: 4, Addr: addr0 + 1<<62 - 1<<57, Value: 4},
		{PC: pc6, Op: isa.JAL, Rd: 31, Imm: int64(pc6 + 1<<63), Taken: true, Targ: pc6 + 1<<63},
		{PC: pc7, Op: isa.BNE, Ra: 1, Rb: 2, Imm: int64(pc7 - 1<<56), Targ: pc7 + 4},
		{PC: pc7 + 4, Op: isa.LD, Rd: 6, Class: isa.LoadIntData, Size: 8, Addr: addr0 - 1<<63, Value: 1 << 63},
	}
	// Every field carries both widths somewhere in the sequence.
	widths := map[string]map[int]bool{"pc": {}, "imm": {}, "addr": {}, "targ": {}}
	prevPC, prevAddr := recs[0].PC, recs[2].Addr
	for _, r := range recs {
		widths["pc"][uvarintLen(zigzag(int64(r.PC-prevPC)))] = true
		prevPC = r.PC
		imm := r.Imm
		if r.IsBranch() {
			imm -= int64(r.PC)
			widths["targ"][uvarintLen(zigzag(int64(r.Targ-r.PC)))] = true
		}
		widths["imm"][uvarintLen(zigzag(imm))] = true
		if r.IsLoad() || r.IsStore() {
			widths["addr"][uvarintLen(zigzag(int64(r.Addr-prevAddr)))] = true
			prevAddr = r.Addr
		}
	}
	for f, w := range widths {
		if !w[9] || !w[10] {
			t.Fatalf("%s deltas have widths %v, want 9 and 10 bytes among them", f, w)
		}
	}
	var want []Record
	for i := 0; i < 40; i++ {
		want = append(want, recs...)
	}
	for _, opts := range []Writer2Options{{}, {Codec: CodecFlate}, {BlockRecords: 3}, {BlockRecords: 7}, {Codec: CodecFlate, BlockRecords: 5}} {
		enc := encodeRecordsVLT2("wide", "ppc", want, opts)
		for _, bufSize := range []int{1, 256} {
			ir, err := NewIndexedReaderBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := drainBatch(ir, bufSize)
			if err != nil {
				t.Fatalf("%+v, batches of %d: %v", opts, bufSize, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v, batches of %d: records differ", opts, bufSize)
			}
		}
	}
}

// TestVLT2NextMatchesNextBatch pins the per-record path (NextBatch with a
// one-record buffer) against one batch that spans several blocks, on a
// trace whose block size does not divide its record count: both deliver
// the written records.
func TestVLT2NextMatchesNextBatch(t *testing.T) {
	tr := FromRecords("nm", "axp", genRecords(3000, 7))
	enc := encode2(t, tr, Writer2Options{BlockRecords: 512})
	for _, bufSize := range []int{1, 2048} {
		ir, err := NewIndexedReaderBytes(enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainBatch(ir, bufSize)
		if err != nil {
			t.Fatalf("batches of %d: %v", bufSize, err)
		}
		if !reflect.DeepEqual(got, tr.Expand()) {
			t.Fatalf("batches of %d: sequence differs from the written records", bufSize)
		}
	}
}

// TestVLT2FlateShrinks pins the size story: a flate-compressed encoding of
// a realistic trace must be smaller than both its raw VLT2 and its VLT1
// encoding.
func TestVLT2FlateShrinks(t *testing.T) {
	tr := FromRecords("sz", "ppc", genRecords(50000, 3))
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

// batchDecodeCase is one block codec's encoding of a trace.
type batchDecodeCase struct {
	name  string // "indexed/<codec>"
	codec BlockCodec
	enc   []byte
}

// TestVLT2WriterHelperLifecycle pins that Close stops Writer2's helper
// goroutine: afterwards the goroutine count is back to its value before the
// writer was created, for an empty writer, one exactly one block long, one
// of many blocks with a short final block, and one whose underlying Write
// fails. A second Close returns what the first did.
func TestVLT2WriterHelperLifecycle(t *testing.T) {
	const blockRecs = 64
	recs := genRecords(4096, 11)
	cases := []struct {
		name    string
		records int
		out     io.Writer
		wantErr bool
	}{
		{"empty", 0, io.Discard, false},
		{"one block", blockRecs, io.Discard, false},
		{"many blocks", 40*blockRecs + 5, io.Discard, false},
		{"write fails", 40 * blockRecs, &failAfterWriter{limit: 100}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, codec := range []BlockCodec{CodecRaw, CodecFlate} {
				before := runtime.NumGoroutine()
				// A one-byte buffer sends every block write on to c.out, so
				// the failing case fails in the helper, not only in Close.
				w, err := NewWriter2Opts(bufio.NewWriterSize(c.out, 1), "life", "ppc",
					Writer2Options{BlockRecords: blockRecs, Codec: codec})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < c.records; i++ {
					if err := w.WriteRecord(&recs[i%len(recs)]); err != nil {
						break
					}
				}
				err = w.Close()
				if (err != nil) != c.wantErr {
					t.Fatalf("%v: Close = %v, want error %v", codec, err, c.wantErr)
				}
				if err2 := w.Close(); err2 != err {
					t.Fatalf("%v: second Close = %v, want %v", codec, err2, err)
				}
				waitGoroutines(t, before)
			}
		})
	}
}

// waitGoroutines fails t unless the goroutine count drops back to want
// within a second (an exiting goroutine may linger for a moment).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want %d", runtime.NumGoroutine(), want)
		}
	}
}

// batchDecodeCases is tr encoded with every block codec.
func batchDecodeCases(tr *Trace) []batchDecodeCase {
	var cases []batchDecodeCase
	for _, codec := range []BlockCodec{CodecRaw, CodecFlate} {
		cases = append(cases, batchDecodeCase{"indexed/" + codec.String(), codec, encodeVLT2(tr, Writer2Options{Codec: codec})})
	}
	return cases
}

// --- benchmarks: the VLT2 encode and batched decode paths ---

// benchTraceV2 is genRecords(n/2) twice over: genRecords puts almost every
// record on its own static row, and a trace holds at most MaxStaticRows.
func benchTraceV2(b *testing.B, n int) *Trace {
	b.Helper()
	recs := genRecords(n/2, 99)
	return FromRecords("bench", "ppc", slices.Concat(recs, recs))
}

// BenchmarkVLT2DecodeBatch drains the trace in 256-record batches with the
// indexed reader over each block codec.
func BenchmarkVLT2DecodeBatch(b *testing.B) {
	tr := benchTraceV2(b, 1<<17)
	out := make([]Record, 256)
	for _, c := range batchDecodeCases(tr) {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := NewIndexedReaderBytes(c.enc)
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
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/rec")
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
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/rec")
}
