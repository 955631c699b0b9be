package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// drainNext decodes an entire stream record-at-a-time, copying each record,
// and returns the records plus the terminal error (nil for a clean EOF).
func drainNext(r *Reader) ([]Record, error) {
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, *rec)
	}
}

// drainBatch decodes an entire stream via NextBatch with the given buffer
// size and returns the records plus the terminal error (nil for clean EOF).
func drainBatch(r *Reader, bufSize int) ([]Record, error) {
	var recs []Record
	buf := make([]Record, bufSize)
	for {
		n, err := r.NextBatch(buf)
		recs = append(recs, buf[:n]...)
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
	}
}

// TestReaderNextBatchMatchesNext is the batch layer's codec differential:
// NextBatch must decode exactly the record sequence Next does, for buffer
// sizes spanning the degenerate (1), the awkward (odd, smaller than the
// peek window) and the typical (pump-sized and larger).
func TestReaderNextBatchMatchesNext(t *testing.T) {
	enc := encodeTrace(genTrace(5003))
	want, err := func() ([]Record, error) {
		r, err := NewReader(bytes.NewReader(enc))
		if err != nil {
			return nil, err
		}
		return drainNext(r)
	}()
	if err != nil {
		t.Fatal(err)
	}
	for _, bufSize := range []int{1, 3, 7, 64, 256, 4096} {
		r, err := NewReader(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainBatch(r, bufSize)
		if err != nil {
			t.Fatalf("bufSize %d: %v", bufSize, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("bufSize %d: batched decode differs from record-at-a-time", bufSize)
		}
	}
}

// TestReaderNextBatchErrorsMatchNext truncates and corrupts encoded streams
// at every byte offset: the batched reader must deliver exactly the records
// the record-at-a-time reader delivers and then fail with the identical
// error message (the fast path falls back to Next for anything invalid).
func TestReaderNextBatchErrorsMatchNext(t *testing.T) {
	enc := encodeTrace(genTrace(64))
	for off := 10; off < len(enc); off += 7 {
		// Truncation at off.
		runBatchErrDiff(t, enc[:off])
		// Single-byte corruption at off.
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0xff
		runBatchErrDiff(t, mut)
	}
}

// runBatchErrDiff decodes enc through both paths and requires identical
// record prefixes and identical terminal errors. Header-level failures make
// NewReader itself fail; those are trivially identical.
func runBatchErrDiff(t *testing.T, enc []byte) {
	t.Helper()
	r1, err1 := NewReader(bytes.NewReader(enc))
	r2, err2 := NewReader(bytes.NewReader(enc))
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("NewReader divergence: %v vs %v", err1, err2)
	}
	if err1 != nil {
		return
	}
	want, wantErr := drainNext(r1)
	got, gotErr := drainBatch(r2, 256)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %d records via batch, %d via Next", len(got), len(want))
	}
	wantMsg, gotMsg := "", ""
	if wantErr != nil {
		wantMsg = wantErr.Error()
	}
	if gotErr != nil {
		gotMsg = gotErr.Error()
	}
	if wantMsg != gotMsg {
		t.Fatalf("error divergence:\n next  %q\n batch %q", wantMsg, gotMsg)
	}
}

// TestSlabsOneSpan pins the in-memory SlabSource: the whole trace as one
// zero-copy span carrying the annotation (nil without LVP hardware), then
// io.EOF on every later call; an empty trace is EOF at once.
func TestSlabsOneSpan(t *testing.T) {
	tr := genTrace(300)
	ann := NewAnnotation(tr)
	for _, a := range []Annotation{nil, ann} {
		src := tr.Slabs(a)
		recs, states, err := src.NextSlab()
		if err != nil || len(recs) != len(tr.Records) || &recs[0] != &tr.Records[0] {
			t.Fatalf("first slab: %d records, err %v; want the whole trace in place", len(recs), err)
		}
		if (states == nil) != (a == nil) || len(states) != len(a) {
			t.Fatalf("states %d (nil %v), want the annotation (nil %v)", len(states), states == nil, a == nil)
		}
		for i := 0; i < 2; i++ {
			if recs, states, err := src.NextSlab(); err != io.EOF || recs != nil || states != nil {
				t.Fatalf("after the span: %d records, %d states, err %v; want io.EOF", len(recs), len(states), err)
			}
		}
	}
	if _, _, err := (&Trace{}).Slabs(nil).NextSlab(); err != io.EOF {
		t.Fatalf("empty trace: err %v, want io.EOF", err)
	}
}

// TestReaderNextBatchAllocFree pins the batched decode hot path at zero
// allocations per batch once the reader is constructed.
func TestReaderNextBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	enc := encodeTrace(genTrace(200_000))
	r, err := NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Record, 256)
	avg := testing.AllocsPerRun(500, func() {
		if _, err := r.NextBatch(buf); err != nil && err != io.EOF {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Reader.NextBatch allocates %v allocs/batch, want 0", avg)
	}
}

// BenchmarkStreamDecodeBatch measures the batched VLT1 decode path; its
// per-record baseline is BenchmarkStreamDecode in stream_test.go, and the
// ratio is the bench harness's decode_batch_speedup trajectory metric.
func BenchmarkStreamDecodeBatch(b *testing.B) {
	enc := encodeTrace(genTrace(1 << 16))
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	buf := make([]Record, 256)
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, err := r.NextBatch(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
