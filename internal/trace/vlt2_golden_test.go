package trace_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lvp/internal/bench"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

var update = flag.Bool("update", false, "rewrite testdata/writer2.sha256 from current output")

// TestVLT2WriterGolden pins Writer2's output bytes, not just the records
// they decode to: the sha256 of trace.Write2 for every suite workload × both
// targets × {raw, flate} at scale 1, plus one flate trace of 7-record blocks
// (many blocks and a short final block), must match
// testdata/writer2.sha256.
//
// Regenerate deliberately with: go test ./internal/trace -run VLT2WriterGolden -update
func TestVLT2WriterGolden(t *testing.T) {
	var got bytes.Buffer
	digest := func(label string, tr *trace.Trace, opts trace.Writer2Options) {
		h := sha256.New()
		if err := trace.Write2(h, tr, opts); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(&got, "%s %x\n", label, h.Sum(nil))
	}
	for _, b := range bench.All() {
		for _, tg := range []prog.Target{prog.PPC, prog.AXP} {
			p, err := b.Build(tg, 1)
			if err != nil {
				t.Fatal(err)
			}
			tr, _, err := vm.Run(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []trace.BlockCodec{trace.CodecRaw, trace.CodecFlate} {
				digest(fmt.Sprintf("%s %s %v", b.Name, tg.Name, c), tr, trace.Writer2Options{Codec: c})
			}
			if b.Name == "grep" && tg == prog.PPC {
				short := trace.FromRecords(tr.Name, tr.Target, tr.Expand()[:1000])
				digest("grep ppc flate blocks=7 first=1000", short, trace.Writer2Options{Codec: trace.CodecFlate, BlockRecords: 7})
			}
		}
	}
	path := filepath.Join("testdata", "writer2.sha256")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Writer2 output diverged from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
