package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

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

// TestConvertErrorStopsWriter pins convert's error paths: a truncated or
// corrupt input, or an output that refuses writes, makes convert return an
// error and leaves no goroutine behind — the output writer's helper is
// stopped (Writer2.Close) before the output file is closed.
func TestConvertErrorStopsWriter(t *testing.T) {
	dir := t.TempDir()
	vlt1, err := os.ReadFile(fixture("shapes.vlt"))
	if err != nil {
		t.Fatal(err)
	}
	vlt2, err := os.ReadFile(fixture("shapes.vlt2"))
	if err != nil {
		t.Fatal(err)
	}
	// A many-block VLT2 copy with its last block's payload corrupted, so the
	// checksum fails after earlier blocks were already converted.
	blocky := filepath.Join(dir, "blocky.vlt2")
	if _, err := convert(fixture("shapes.vlt"), blocky, trace.Writer2Options{BlockRecords: 2}); err != nil {
		t.Fatal(err)
	}
	corrupt, err := os.ReadFile(blocky)
	if err != nil {
		t.Fatal(err)
	}
	footerOff := binary.LittleEndian.Uint64(corrupt[len(corrupt)-16:]) // the trailer
	corrupt[footerOff-1] ^= 0xff                                       // the last block's last byte
	inputs := map[string][]byte{
		"truncated.vlt2": vlt2[:len(vlt2)/2],
		"truncated.vlt":  vlt1[:len(vlt1)/2], // fails mid-stream, after the writer starts
		"corrupt.vlt2":   corrupt,
	}
	for name, data := range inputs {
		t.Run(name, func(t *testing.T) {
			in := filepath.Join(dir, name)
			if err := os.WriteFile(in, data, 0o644); err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			if _, err := convert(in, filepath.Join(dir, "out.vlt2"), trace.Writer2Options{BlockRecords: 2}); err == nil {
				t.Fatal("convert accepted a damaged input")
			}
			waitGoroutines(t, before)
		})
	}
	t.Run("write error", func(t *testing.T) {
		f, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
		if err != nil {
			t.Skip("no /dev/full on this system")
		}
		f.Close()
		// Enough records to overflow the writer's buffer, so the write
		// error surfaces from WriteRecord rather than from Close.
		d, closeIn, err := openTrace(fixture("shapes.vlt"))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.ReadAll(d)
		closeIn()
		if err != nil {
			t.Fatal(err)
		}
		big := &trace.Trace{Name: tr.Name, Target: tr.Target}
		for len(big.Records) < 1<<15 {
			big.Records = append(big.Records, tr.Records...)
		}
		in := filepath.Join(dir, "big.vlt2")
		var buf bytes.Buffer
		if err := trace.Write2(&buf, big, trace.Writer2Options{}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(in, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		if _, err := convert(in, "/dev/full", trace.Writer2Options{}); err == nil {
			t.Fatal("convert to /dev/full returned no error")
		}
		waitGoroutines(t, before)
	})
}

// waitGoroutines fails t unless the goroutine count drops back to want
// within a second (an exiting goroutine may linger for a moment).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after convert, want %d", runtime.NumGoroutine(), want)
		}
	}
}

// TestVerifyRejects pins -verify's rejections: a file whose records differ
// from the other's (in the first batch and past it), a file that is a
// one-record prefix of the other, either way round, and an input that fails
// to open or fails to decode past the first batch all make verifyEqual
// return an error.
func TestVerifyRejects(t *testing.T) {
	dir := t.TempDir()
	d, closeIn, err := openTrace(fixture("shapes.vlt"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := trace.ReadAll(d)
	closeIn()
	if err != nil {
		t.Fatal(err)
	}
	// Enough records that a mismatch near the end lies well past the first
	// batch of any reader.
	tr := &trace.Trace{Name: base.Name, Target: base.Target}
	for len(tr.Records) < 10000 {
		tr.Records = append(tr.Records, base.Records...)
	}
	write := func(name string, t2 *trace.Trace) string {
		t.Helper()
		var buf bytes.Buffer
		if err := trace.Write2(&buf, t2, trace.Writer2Options{BlockRecords: 64}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// mutate returns a copy of tr with record i's value changed.
	mutate := func(i int) *trace.Trace {
		m := &trace.Trace{Name: tr.Name, Target: tr.Target, Records: append([]trace.Record(nil), tr.Records...)}
		m.Records[i].Value ^= 1
		return m
	}
	full := write("full.vlt2", tr)
	if err := verifyEqual(full, full); err != nil {
		t.Fatalf("verify rejected identical files: %v", err)
	}
	prefix := write("prefix.vlt2", &trace.Trace{Name: tr.Name, Target: tr.Target, Records: tr.Records[:len(tr.Records)-1]})
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.vlt2")
	if err := os.WriteFile(truncated, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	// The last block's last payload byte flipped: the file opens, and
	// decoding fails after many batches have compared equal.
	corrupt := filepath.Join(dir, "corrupt.vlt2")
	footerOff := binary.LittleEndian.Uint64(raw[len(raw)-16:]) // the trailer
	raw[footerOff-1] ^= 0xff
	if err := os.WriteFile(corrupt, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, a, b string }{
		{"first-record-differs", full, write("diff0.vlt2", mutate(0))},
		{"late-record-differs", full, write("difflate.vlt2", mutate(len(tr.Records)-2))},
		{"b-is-prefix", full, prefix},
		{"a-is-prefix", prefix, full},
		{"unopenable", full, truncated},
		{"corrupt-last-block", full, corrupt},
		{"corrupt-last-block-first", corrupt, full},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := verifyEqual(tc.a, tc.b); err == nil {
				t.Fatal("verify accepted files whose records differ")
			}
		})
	}
}
