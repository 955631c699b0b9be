package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// drainBatch drains src via NextBatch with the given buffer size and
// returns the records plus the terminal error (nil for clean EOF).
func drainBatch(src BatchSource, bufSize int) ([]Record, error) {
	var recs []Record
	buf := make([]Record, bufSize)
	for {
		n, err := src.NextBatch(buf)
		recs = append(recs, buf[:n]...)
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
	}
}

// TestReaderNextBatchMatchesNext pins the batched decode against the
// record-at-a-time one (NextBatch with a one-record buffer): for every
// buffer size, some dividing the record count and some not, the Reader
// delivers the identical record sequence.
func TestReaderNextBatchMatchesNext(t *testing.T) {
	enc := encodeTrace(genTrace(5003))
	r, err := NewReader(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	want, err := drainBatch(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 5003 {
		t.Fatalf("record-at-a-time decode: %d records, want 5003", len(want))
	}
	for _, bufSize := range []int{3, 7, 64, 256, 4096} {
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

// TestReaderBatchErrorsAgree truncates and corrupts encoded streams at
// every seventh byte offset: whatever the buffer size (1, 7 or 256
// records), the Reader must deliver the same records and then fail with the
// identical error message.
func TestReaderBatchErrorsAgree(t *testing.T) {
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

// runBatchErrDiff decodes enc in batches of 1, 7 and 256 records and
// requires identical record prefixes and identical terminal errors.
// Header-level failures make NewReader itself fail.
func runBatchErrDiff(t *testing.T, enc []byte) {
	t.Helper()
	if _, err := NewReader(bytes.NewReader(enc)); err != nil {
		return
	}
	var want []Record
	var wantMsg string
	for i, bufSize := range []int{1, 7, 256} {
		r, err := NewReader(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := drainBatch(r, bufSize)
		gotMsg := ""
		if gotErr != nil {
			gotMsg = gotErr.Error()
		}
		if i == 0 {
			want, wantMsg = got, gotMsg
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %d records in batches of %d, %d in batches of 1", len(got), bufSize, len(want))
		}
		if gotMsg != wantMsg {
			t.Fatalf("error divergence:\n batches of 1   %q\n batches of %d %q", wantMsg, bufSize, gotMsg)
		}
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
