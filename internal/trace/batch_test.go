package trace

import (
	"bytes"
	"io"
	"reflect"
	"slices"
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

// TestBatchesOneSpan pins the in-memory walk the timing models and the
// record walks read: Batches yields non-empty batches of at most
// batchRecords records whose bases are consecutive and which concatenate to
// the trace's records; an empty trace yields nothing; and a walk allocates
// once, its buffer.
func TestBatchesOneSpan(t *testing.T) {
	for _, n := range []int{1, batchRecords - 1, batchRecords, 3*batchRecords + 7} {
		tr := genTrace(n)
		var recs []Record
		for base, batch := range tr.Batches() {
			if base != len(recs) || len(batch) == 0 || len(batch) > batchRecords {
				t.Fatalf("n=%d: batch of %d records at base %d after %d records", n, len(batch), base, len(recs))
			}
			recs = append(recs, batch...)
		}
		if !reflect.DeepEqual(recs, tr.Expand()) {
			t.Fatalf("n=%d: batches do not concatenate to the trace", n)
		}
	}
	for range FromRecords("", "", nil).Batches() {
		t.Fatal("empty trace yielded a batch")
	}
	if raceEnabled {
		return
	}
	tr := genTrace(8 * batchRecords)
	walk := func() {
		for range tr.Batches() {
		}
	}
	if allocs := testing.AllocsPerRun(5, walk); allocs != 1 {
		t.Fatalf("a walk of Batches: %v allocs, want 1", allocs)
	}
}

// TestReaderNextBatchAllocFree pins the batched decode hot path at zero
// allocations per batch once the reader is constructed.
func TestReaderNextBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	// genTrace puts every record on its own static row, so the 200,000
	// records repeat 50,000 to stay within MaxStaticRows.
	recs := genTrace(50_000).Expand()
	enc := encodeTrace(FromRecords("gen", "ppc", slices.Concat(recs, recs, recs, recs)))
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
