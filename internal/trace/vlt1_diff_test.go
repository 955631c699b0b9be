package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"lvp/internal/bench"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// TestVLT1Differential is the VLT1 leg of the format differential: every
// suite workload on both targets, encoded by the VLT1 reference encoder,
// decodes through NewReader to exactly the in-memory trace. (The VLT2 encodings'
// annotation and timing-model legs are internal/exp's TestFormatDifferential.)
func TestVLT1Differential(t *testing.T) {
	benches := bench.All()
	if testing.Short() {
		benches = benches[:4]
	}
	for _, b := range benches {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, tg := range []prog.Target{prog.PPC, prog.AXP} {
				p, err := b.Build(tg, 1)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := vm.Run(p, 0)
				if err != nil {
					t.Fatal(err)
				}
				d, err := trace.NewReader(bytes.NewReader(trace.EncodeVLT1(want)))
				if err != nil {
					t.Fatal(err)
				}
				got, err := trace.ReadAll(d)
				if err != nil {
					t.Fatalf("%s: %v", tg.Name, err)
				}
				if got.Name != want.Name || got.Target != want.Target {
					t.Fatalf("%s: header %q/%q, want %q/%q", tg.Name, got.Name, got.Target, want.Name, want.Target)
				}
				if !reflect.DeepEqual(got.Records, want.Records) {
					t.Fatalf("%s: decoded records differ from the in-memory trace", tg.Name)
				}
			}
		})
	}
}
