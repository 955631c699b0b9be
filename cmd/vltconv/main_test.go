package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lvp/internal/trace"
)

func fixture(name string) string {
	return filepath.Join("..", "..", "internal", "trace", "testdata", "vlt1", name)
}

// TestConvertVLT1Fixtures pins the VLT1 → VLT2 conversion path against the
// checked-in fixtures: converting either VLT1 file (minimal or padded count
// field) with default options reproduces the VLT2 copy byte for byte, and
// -verify's lockstep check accepts the pair.
func TestConvertVLT1Fixtures(t *testing.T) {
	want, err := os.ReadFile(fixture("shapes.vlt2"))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{"shapes.vlt", "shapes.padded.vlt"} {
		t.Run(in, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.vlt2")
			n, err := convert(fixture(in), out, trace.Writer2Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("converted %d records to %d bytes, not byte-identical to shapes.vlt2 (%d bytes)", n, len(got), len(want))
			}
			if err := verifyEqual(fixture(in), out); err != nil {
				t.Fatal(err)
			}
		})
	}
}
