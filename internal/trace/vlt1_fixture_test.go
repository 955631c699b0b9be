package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lvp/internal/isa"
)

// The fixtures under testdata/vlt1 were written by the VLT1 writers this
// package used to carry, before the format became read-only: shapes.vlt by
// the whole-trace writer (minimal count field) and shapes.padded.vlt by the
// streaming writer (ten-byte count field, backpatched at Close). Both hold
// the same short trace covering every record shape; shapes.vlt2 is that
// trace written by Write2 with default options.
var vlt1Fixtures = []struct{ name, file string }{
	{"minimal count", "shapes.vlt"},
	{"padded count", "shapes.padded.vlt"},
}

func fixturePath(file string) string { return filepath.Join("testdata", "vlt1", file) }

func readFixture(t *testing.T, file string) []byte {
	t.Helper()
	data, err := os.ReadFile(fixturePath(file))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fixtureWant decodes the VLT2 copy: what both VLT1 fixtures must decode to.
func fixtureWant(t *testing.T) *Trace {
	t.Helper()
	ir, err := NewIndexedReaderBytes(readFixture(t, "shapes.vlt2"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadAll(ir)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func sameTrace(t *testing.T, how string, got, want *Trace) {
	t.Helper()
	if got.Name != want.Name || got.Target != want.Target {
		t.Fatalf("%s: header %q/%q, want %q/%q", how, got.Name, got.Target, want.Name, want.Target)
	}
	if !reflect.DeepEqual(got.Expand(), want.Expand()) {
		t.Fatalf("%s: records differ:\n got %+v\nwant %+v", how, got.Expand(), want.Expand())
	}
}

// TestVLT1Fixtures pins that VLT1 files written by the retired writers
// still read: both fixtures decode through NewReader (any io.Reader) and through
// OpenFile (a file) to exactly the VLT2 copy's header and records, and the
// fixture trace covers every record shape the VLT1 flags distinguish.
func TestVLT1Fixtures(t *testing.T) {
	want := fixtureWant(t)
	var loads [isa.NumLoadClasses]bool
	var stores, taken, notTaken, values, imms bool
	for _, r := range want.Expand() {
		switch {
		case r.IsLoad():
			loads[r.Class] = true
		case r.IsStore():
			stores = true
		case r.IsBranch():
			taken = taken || r.Taken
			notTaken = notTaken || !r.Taken
		case r.Value != 0:
			values = true
		}
		imms = imms || r.Imm != 0
	}
	for c := isa.LoadClass(1); c < isa.NumLoadClasses; c++ {
		if !loads[c] {
			t.Errorf("fixture has no %v load", c)
		}
	}
	if !stores || !taken || !notTaken || !values || !imms {
		t.Errorf("fixture lacks a record shape: stores %v, taken %v, not-taken %v, values %v, immediates %v",
			stores, taken, notTaken, values, imms)
	}

	for _, fx := range vlt1Fixtures {
		t.Run(fx.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(readFixture(t, fx.file)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			sameTrace(t, "NewReader", got, want)

			f, err := os.Open(fixturePath(fx.file))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			d, err := OpenFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := d.(*Reader); !ok {
				t.Fatalf("OpenFile returned %T, want the VLT1 *Reader", d)
			}
			got, err = ReadAll(d)
			if err != nil {
				t.Fatal(err)
			}
			sameTrace(t, "OpenFile", got, want)
			if d.Count() != uint64(want.Len()) || d.Decoded() != d.Count() {
				t.Fatalf("Count()=%d Decoded()=%d, want %d", d.Count(), d.Decoded(), want.Len())
			}
			var buf [1]Record
			if n, err := d.NextBatch(buf[:]); n != 0 || err != io.EOF {
				t.Fatalf("NextBatch after the last record: (%d, %v), want (0, io.EOF)", n, err)
			}
		})
	}
}

// TestWriterCountByteIdentical pins the reference encoder the VLT1 tests
// use against the retired writers' output: encoding the fixture trace
// reproduces the known-count writer's file and the backpatching streaming
// writer's file byte for byte.
func TestWriterCountByteIdentical(t *testing.T) {
	want := fixtureWant(t)
	if !bytes.Equal(encodeTrace(want), readFixture(t, "shapes.vlt")) {
		t.Error("minimal-count encoding differs from shapes.vlt")
	}
	if !bytes.Equal(encodePadded(want), readFixture(t, "shapes.padded.vlt")) {
		t.Error("padded-count encoding differs from shapes.padded.vlt")
	}
}

// TestPaddedEncodingLayout pins that the padded-count fixture differs from
// the minimal one only in the width of the count field: same header before
// it, byte-identical record stream after it.
func TestPaddedEncodingLayout(t *testing.T) {
	want := fixtureWant(t)
	minimal := readFixture(t, "shapes.vlt")
	padded := readFixture(t, "shapes.padded.vlt")
	headerLen := len(magic) +
		uvarintLen(uint64(len(want.Name))) + len(want.Name) +
		uvarintLen(uint64(len(want.Target))) + len(want.Target)
	minCount := uvarintLen(uint64(want.Len()))
	const paddedCount = 10
	if !bytes.Equal(minimal[:headerLen], padded[:headerLen]) {
		t.Fatal("headers before the count field differ")
	}
	if !bytes.Equal(minimal[headerLen+minCount:], padded[headerLen+paddedCount:]) {
		t.Fatal("record streams after the count field differ")
	}
	if len(padded)-len(minimal) != paddedCount-minCount {
		t.Fatalf("padded is %d bytes longer, want %d", len(padded)-len(minimal), paddedCount-minCount)
	}
}
