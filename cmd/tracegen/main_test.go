package main

import (
	"bytes"
	"testing"

	"lvp/internal/bench"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// TestStreamTraceMatchesWrite2 pins tracegen's streaming path to the
// in-memory one: for a few workloads on both targets and both block codecs,
// streamTrace writes exactly the bytes trace.Write2 writes for vm.Run's
// trace, its summary equals that trace's Summarize, and its output count is
// the run's.
func TestStreamTraceMatchesWrite2(t *testing.T) {
	for _, name := range []string{"grep", "quick", "doduc"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range []prog.Target{prog.PPC, prog.AXP} {
			p, err := b.Build(tg, 1)
			if err != nil {
				t.Fatal(err)
			}
			tr, res, err := vm.Run(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, codec := range []trace.BlockCodec{trace.CodecRaw, trace.CodecFlate} {
				t.Run(name+"/"+tg.Name+"/"+codec.String(), func(t *testing.T) {
					var want bytes.Buffer
					if err := trace.Write2(&want, tr, trace.Writer2Options{Codec: codec}); err != nil {
						t.Fatal(err)
					}
					var got bytes.Buffer
					sum, outputs, err := streamTrace(&got, p, codec)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("streamTrace wrote %d bytes, not byte-identical to Write2's %d", got.Len(), want.Len())
					}
					if ws := tr.Summarize(); sum != ws {
						t.Fatalf("summary %+v, want %+v", sum, ws)
					}
					if outputs != len(res.Output) {
						t.Fatalf("%d outputs, want %d", outputs, len(res.Output))
					}
				})
			}
		}
	}
}
