package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lvp/internal/isa"
)

// genTrace builds a deterministic synthetic trace of n records cycling
// through every record shape the codec distinguishes (ALU with/without
// result value, load, store, branch), with pseudo-random addresses and
// values from a fixed-seed LCG. Only canonical field combinations are
// produced (no Size on non-memory records, no Targ on non-branches), so
// decode(encode(r)) == r for every record.
func genTrace(n int) *Trace {
	t := &Trace{Name: "gen", Target: "ppc"}
	t.Records = make([]Record, 0, n)
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	pc := uint64(0x1000)
	for i := 0; i < n; i++ {
		var r Record
		switch i % 5 {
		case 0:
			r = Record{PC: pc, Op: isa.ADDI, Rd: 3, Ra: 1, Imm: int64(i % 1000), Value: rnd()}
		case 1:
			cls := isa.LoadIntData
			if i%2 == 0 {
				cls = isa.LoadDataAddr
			}
			r = Record{PC: pc, Op: isa.LD, Rd: 4, Ra: 3, Imm: 8,
				Addr: 0x2000 + rnd()%4096*8, Value: rnd(), Size: 8, Class: cls}
		case 2:
			r = Record{PC: pc, Op: isa.SD, Ra: 3, Rb: 4, Imm: 16,
				Addr: 0x4000 + rnd()%4096*8, Value: rnd(), Size: 8}
		case 3:
			taken := i%2 == 1
			targ := pc + 4
			if taken {
				targ = pc - 16*4
			}
			r = Record{PC: pc, Op: isa.BEQ, Ra: 4, Imm: -64, Taken: taken, Targ: targ}
			pc = targ - 4
		case 4:
			r = Record{PC: pc, Op: isa.ADD, Rd: 5, Ra: 3, Rb: 4, Value: rnd() & 0xffff}
		}
		t.Records = append(t.Records, r)
		pc += 4
	}
	return t
}

// decodeStream drains a Reader into a Trace in batches of bufSize records,
// so tests compare the batched path against the whole-trace ReadAll
// explicitly.
func decodeStream(tb testing.TB, data []byte, bufSize int) (*Reader, *Trace) {
	tb.Helper()
	sr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		tb.Fatalf("NewReader: %v", err)
	}
	recs, err := drainBatch(sr, bufSize)
	if err != nil {
		tb.Fatalf("NextBatch (after record %d): %v", len(recs), err)
	}
	return sr, &Trace{Name: sr.Name(), Target: sr.Target(), Records: recs}
}

// TestReaderMatchesRead pins the decode layer's invariant: the Reader
// drained in batches of 1, 7 and 256 records yields exactly the records the
// whole-trace ReadAll materializes, for both count encodings.
func TestReaderMatchesRead(t *testing.T) {
	want := genTrace(1000)
	for _, enc := range []struct {
		name string
		data []byte
	}{
		{"minimal count", encodeTrace(want)},
		{"padded count", encodePadded(want)},
	} {
		t.Run(enc.name, func(t *testing.T) {
			ref, err := readVLT1(enc.data)
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			if !reflect.DeepEqual(ref.Records, want.Records) {
				t.Fatal("decode differs from the source records")
			}
			for _, bufSize := range []int{1, 7, 256} {
				sr, got := decodeStream(t, enc.data, bufSize)
				if got.Name != ref.Name || got.Target != ref.Target {
					t.Fatalf("header: got %q/%q, want %q/%q", got.Name, got.Target, ref.Name, ref.Target)
				}
				if !reflect.DeepEqual(got.Records, ref.Records) {
					t.Fatalf("batches of %d: decode differs from ReadAll", bufSize)
				}
				if sr.Decoded() != sr.Count() || sr.Decoded() != uint64(len(want.Records)) {
					t.Fatalf("Decoded()=%d Count()=%d, want %d", sr.Decoded(), sr.Count(), len(want.Records))
				}
				// EOF is sticky.
				buf := make([]Record, bufSize)
				for i := 0; i < 3; i++ {
					if n, err := sr.NextBatch(buf); n != 0 || err != io.EOF {
						t.Fatalf("NextBatch after EOF: (%d, %v)", n, err)
					}
				}
			}
		})
	}
}

// failAfterWriter errors once limit bytes have been written, modelling a
// full disk mid-stream.
type failAfterWriter struct {
	limit int
	n     int
}

var errDiskFull = errors.New("disk full")

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.limit {
		return 0, errDiskFull
	}
	f.n += len(p)
	return len(p), nil
}

// TestWriterStickyError pins that an underlying write failure surfaces from
// Writer2.WriteRecord (not silently swallowed by buffering or by the helper
// goroutine) and stays sticky for every later call including both Closes.
// The helper reports a block's error when it returns that block's buffer, so
// WriteRecord must fail no later than the handoff of the block after the
// failing one.
func TestWriterStickyError(t *testing.T) {
	const blockRecs, blocks, failing = 256, 8, 3
	tr := genTrace(64)
	rec := func(i int) *Record { return &tr.Records[i%len(tr.Records)] }
	opts := Writer2Options{BlockRecords: blockRecs}

	// Block offsets of the same stream written without a failure.
	good, err := NewWriter2Opts(io.Discard, tr.Name, tr.Target, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks * blockRecs {
		if err := good.WriteRecord(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := good.Close(); err != nil {
		t.Fatal(err)
	}
	// A one-byte buffer passes each block's header and payload straight
	// through, so the first write past the limit is block failing's.
	e := good.idx[failing]
	fw := &failAfterWriter{limit: int(e.off + e.size/2)}
	sw, err := NewWriter2Opts(bufio.NewWriterSize(fw, 1), tr.Name, tr.Target, opts)
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	calls := 0
	for ; calls < blocks*blockRecs && werr == nil; calls++ {
		werr = sw.WriteRecord(rec(calls))
	}
	if !errors.Is(werr, errDiskFull) {
		t.Fatalf("WriteRecord never surfaced the write error (got %v)", werr)
	}
	if calls <= (failing+1)*blockRecs || calls > (failing+2)*blockRecs {
		t.Fatalf("error surfaced on WriteRecord call %d, want after the handoff of block %d (call %d) and no later than the next (call %d)",
			calls, failing, (failing+1)*blockRecs, (failing+2)*blockRecs)
	}
	if err := sw.WriteRecord(rec(0)); !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteRecord after failure = %v, want sticky error", err)
	}
	for i := range 2 {
		if err := sw.Close(); !errors.Is(err, errDiskFull) {
			t.Fatalf("Close #%d after failure = %v, want sticky error", i+1, err)
		}
	}
}

// TestHeaderStringCap pins the header-string allocation cap: a header
// declaring a name or target longer than MaxHeaderString is rejected with
// ErrStringTooLong before anything is allocated, while a string of exactly
// MaxHeaderString is accepted.
func TestHeaderStringCap(t *testing.T) {
	oversize := func(declared uint64) []byte {
		var buf bytes.Buffer
		buf.WriteString(magic)
		writeUvarintBuf(&buf, declared)
		return buf.Bytes()
	}
	t.Run("name over cap", func(t *testing.T) {
		_, err := NewReader(bytes.NewReader(oversize(MaxHeaderString + 1)))
		if !errors.Is(err, ErrStringTooLong) {
			t.Fatalf("NewReader = %v, want ErrStringTooLong", err)
		}
	})
	t.Run("absurd length, tiny input", func(t *testing.T) {
		// A 1<<60 declared length with no bytes behind it must fail on the
		// length check, not attempt the allocation and fail on ReadFull.
		_, err := NewReader(bytes.NewReader(oversize(1 << 60)))
		if !errors.Is(err, ErrStringTooLong) {
			t.Fatalf("NewReader = %v, want ErrStringTooLong", err)
		}
	})
	t.Run("read path too", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "long.vlt")
		if err := os.WriteFile(path, oversize(MaxHeaderString+1), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := OpenFile(f); !errors.Is(err, ErrStringTooLong) {
			t.Fatalf("OpenFile = %v, want ErrStringTooLong", err)
		}
	})
	t.Run("exactly at cap accepted", func(t *testing.T) {
		name := strings.Repeat("n", MaxHeaderString)
		tr := &Trace{Name: name, Target: "ppc"}
		got, err := readVLT1(encodeTrace(tr))
		if err != nil {
			t.Fatalf("decoder rejected a %d-byte name: %v", MaxHeaderString, err)
		}
		if got.Name != name {
			t.Fatal("cap-length name did not round-trip")
		}
	})
}

func writeUvarintBuf(buf *bytes.Buffer, v uint64) {
	var tmp [10]byte
	for i := 0; ; i++ {
		if v < 0x80 {
			tmp[i] = byte(v)
			buf.Write(tmp[:i+1])
			return
		}
		tmp[i] = byte(v&0x7f) | 0x80
		v >>= 7
	}
}

// FuzzStreamRoundTrip is the streaming-layer twin of FuzzRoundTrip: the
// Reader pulled one record per NextBatch must never panic on arbitrary
// bytes, and any stream it fully decodes must re-encode (via the reference
// encoder) to a stream that decodes to the same records.
func FuzzStreamRoundTrip(f *testing.F) {
	valid := encodeTrace(fuzzSeedTrace())
	f.Add(valid)
	f.Add(encodePadded(fuzzSeedTrace()))
	f.Add(encodeTrace(&Trace{Name: "empty", Target: "axp"}))
	f.Add(encodePadded(genTrace(17)))
	f.Add([]byte{})
	f.Add([]byte("VLT0"))
	f.Add([]byte("VLT1"))
	f.Add(valid[:len(valid)-3])
	f.Add(append([]byte("VLT1"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01))
	f.Add(append(bytes.Clone(valid), 0xAA))

	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		recs, err := drainBatch(sr, 1)
		if err != nil {
			return // malformed record rejected; that is the contract
		}
		// Fully decoded: encode it again and decode the result.
		sr2, got := decodeStream(t, encodeTrace(&Trace{Name: sr.Name(), Target: sr.Target(), Records: recs}), 1)
		if sr2.Name() != sr.Name() || sr2.Target() != sr.Target() {
			t.Fatalf("header drift: %q/%q -> %q/%q", sr.Name(), sr.Target(), sr2.Name(), sr2.Target())
		}
		if len(got.Records) != len(recs) {
			t.Fatalf("record count drift: %d -> %d", len(recs), len(got.Records))
		}
		for i := range recs {
			if !reflect.DeepEqual(recs[i], got.Records[i]) {
				t.Fatalf("record %d drift:\n got %+v\nwant %+v", i, got.Records[i], recs[i])
			}
		}
	})
}

// TestWriterWriteRecordAllocFree is the encode-side twin of
// TestReaderNextBatchAllocFree, on the flate codec: Writer2.WriteRecord must
// not allocate per record, block flushes and DEFLATE included.
func TestWriterWriteRecordAllocFree(t *testing.T) {
	writer2AllocFree(t, Writer2Options{Codec: CodecFlate})
}

// BenchmarkStreamDecode measures the VLT1 Reader's decode path in
// 256-record batches.
func BenchmarkStreamDecode(b *testing.B) {
	data := encodeTrace(genTrace(1 << 16))
	buf := make([]Record, 256)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := sr.NextBatch(buf); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
