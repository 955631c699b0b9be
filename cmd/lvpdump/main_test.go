package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lvp/internal/trace"
)

// traceFiles writes the VLT1 shapes fixture and a VLT2 encoding of the same
// trace to temp files and returns both paths and the record count.
func traceFiles(t *testing.T) (vlt1, vlt2 string, n uint64) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "trace", "testdata", "vlt1", "shapes.vlt"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadAll(d)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := trace.Write2(&enc, tr, trace.Writer2Options{BlockRecords: 4}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	vlt1, vlt2 = filepath.Join(dir, "t.vlt"), filepath.Join(dir, "t.vlt2")
	if err := os.WriteFile(vlt1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(vlt2, enc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return vlt1, vlt2, uint64(len(tr.Records))
}

// dump runs dumpTrace with stdout captured.
func dump(t *testing.T, path string, seek uint64, n int64) (string, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	derr := dumpTrace(path, seek, n)
	os.Stdout = stdout
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), derr
}

// TestDumpTraceFormats pins that -trace dumps VLT1 and VLT2 files the same
// way: identical output from the start, after a seek, and at the exact end,
// and the same error for a seek past the last record.
func TestDumpTraceFormats(t *testing.T) {
	vlt1, vlt2, n := traceFiles(t)
	for _, tc := range []struct {
		name  string
		seek  uint64
		count int64
	}{
		{"all", 0, -1},
		{"seek-window", 5, 6},
		{"seek-to-end", n, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got1, err := dump(t, vlt1, tc.seek, tc.count)
			if err != nil {
				t.Fatalf("vlt1: %v", err)
			}
			got2, err := dump(t, vlt2, tc.seek, tc.count)
			if err != nil {
				t.Fatalf("vlt2: %v", err)
			}
			if got1 != got2 {
				t.Fatalf("dumps differ:\nvlt1:\n%s\nvlt2:\n%s", got1, got2)
			}
			lines := strings.Count(got1, "\n") - 1 // minus the header line
			want := int(n - tc.seek)
			if tc.count >= 0 {
				want = min(want, int(tc.count))
			}
			if lines != want {
				t.Fatalf("%d record lines, want %d:\n%s", lines, want, got1)
			}
		})
	}
	t.Run("seek-past-end", func(t *testing.T) {
		_, err1 := dump(t, vlt1, n+1, -1)
		_, err2 := dump(t, vlt2, n+1, -1)
		if err1 == nil || err2 == nil {
			t.Fatalf("seek past the end: vlt1 err %v, vlt2 err %v; want both to fail", err1, err2)
		}
		if err1.Error() != err2.Error() {
			t.Fatalf("errors differ: vlt1 %q, vlt2 %q", err1, err2)
		}
	})
}
