package exp

import (
	"bytes"
	"reflect"
	"testing"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/trace"
)

// formatEncodings is the encoding matrix for the differential gate: both
// VLT2 codecs, and one deliberately awkward block size so records straddle
// block boundaries in odd places. (VLT1 is read-only; its leg is
// internal/trace's TestVLT1Differential.)
var formatEncodings = []struct {
	name string
	enc  func(tr *trace.Trace) ([]byte, error)
}{
	{"vlt2-raw", vlt2Enc(trace.Writer2Options{})},
	{"vlt2-flate", vlt2Enc(trace.Writer2Options{Codec: trace.CodecFlate})},
	{"vlt2-odd-blocks", vlt2Enc(trace.Writer2Options{BlockRecords: 61})},
}

func vlt2Enc(opts trace.Writer2Options) func(tr *trace.Trace) ([]byte, error) {
	return func(tr *trace.Trace) ([]byte, error) {
		var buf bytes.Buffer
		err := trace.Write2(&buf, tr, opts)
		return buf.Bytes(), err
	}
}

// decodeVLT2 materializes enc through the VLT2 decoder.
func decodeVLT2(t *testing.T, enc []byte) *trace.Trace {
	t.Helper()
	d, err := trace.NewIndexedReaderBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(d)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// sim620 runs an in-memory trace through the 620 model.
func sim620(t *testing.T, tr *trace.Trace, ann trace.Annotation, mc ppc620.Config, name string) ppc620.Stats {
	t.Helper()
	st, err := ppc620.Simulate(tr, ann, mc, name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sim21164 runs an in-memory trace through the 21164 model.
func sim21164(t *testing.T, tr *trace.Trace, ann trace.Annotation, name string) axp21164.Stats {
	t.Helper()
	st, err := axp21164.Simulate(tr, ann, axp21164.Config21164(), name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// formatDiffBenches is the workload set for TestFormatDifferential: every
// benchmark normally, a fixed subset under -short (the race gate runs
// -short, and the full cross-product is too slow under the detector).
func formatDiffBenches() []bench.Benchmark {
	all := bench.All()
	if testing.Short() {
		return all[:4]
	}
	return all
}

// TestFormatDifferential is the trace-format differential gate: for every
// suite workload and every encoding in the matrix, the decoded records and
// metadata must be byte-identical to the in-memory trace, the annotation
// computed from the decoded records must match the in-memory annotation,
// and all three machine models must produce identical stats no matter
// which format fed them. The 620/620+ legs consume the PPC-target trace
// and the 21164 leg the AXP-target trace, mirroring the paper's pairing.
func TestFormatDifferential(t *testing.T) {
	mem := NewSuiteParallel(1, 1)
	cfg := lvp.Simple
	for _, b := range formatDiffBenches() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			wantPPC, err := mem.Trace(b.Name, prog.PPC)
			if err != nil {
				t.Fatal(err)
			}
			wantAXP, err := mem.Trace(b.Name, prog.AXP)
			if err != nil {
				t.Fatal(err)
			}
			wantAnn, _, err := mem.Annotation(b.Name, prog.PPC, cfg)
			if err != nil {
				t.Fatal(err)
			}
			annAXP, _, err := mem.Annotation(b.Name, prog.AXP, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want620 := sim620(t, wantPPC, wantAnn, ppc620.Config620(), cfg.Name)
			want620p := sim620(t, wantPPC, wantAnn, ppc620.Config620Plus(), cfg.Name)
			want164 := sim21164(t, wantAXP, annAXP, cfg.Name)

			for _, f := range formatEncodings {
				f := f
				t.Run(f.name, func(t *testing.T) {
					encPPC, err := f.enc(wantPPC)
					if err != nil {
						t.Fatal(err)
					}
					encAXP, err := f.enc(wantAXP)
					if err != nil {
						t.Fatal(err)
					}
					gotPPC := decodeVLT2(t, encPPC)
					if gotPPC.Name != wantPPC.Name || gotPPC.Target != wantPPC.Target {
						t.Fatalf("metadata differs: got %q/%q want %q/%q",
							gotPPC.Name, gotPPC.Target, wantPPC.Name, wantPPC.Target)
					}
					if !reflect.DeepEqual(gotPPC.Expand(), wantPPC.Expand()) {
						t.Fatal("decoded records differ")
					}
					gotAXP := decodeVLT2(t, encAXP)
					if !reflect.DeepEqual(gotAXP.Expand(), wantAXP.Expand()) {
						t.Fatal("decoded AXP records differ")
					}

					// Annotation from the decoded records must be
					// byte-identical to the in-memory annotation.
					gotAnn, _, err := lvp.Annotate(gotPPC, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotAnn, wantAnn) {
						t.Fatal("annotation from decoded trace differs")
					}

					// All three machine models, fed from the decoded
					// traces, must report identical stats.
					if got := sim620(t, gotPPC, gotAnn, ppc620.Config620(), cfg.Name); !reflect.DeepEqual(got, want620) {
						t.Fatalf("620 stats differ:\n mem  %+v\n file %+v", want620, got)
					}
					if got := sim620(t, gotPPC, gotAnn, ppc620.Config620Plus(), cfg.Name); !reflect.DeepEqual(got, want620p) {
						t.Fatalf("620+ stats differ:\n mem  %+v\n file %+v", want620p, got)
					}
					gotAnnAXP, _, err := lvp.Annotate(gotAXP, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := sim21164(t, gotAXP, gotAnnAXP, cfg.Name); !reflect.DeepEqual(got, want164) {
						t.Fatalf("21164 stats differ:\n mem  %+v\n file %+v", want164, got)
					}
				})
			}
		})
	}
}
