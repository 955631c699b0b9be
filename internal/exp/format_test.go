package exp

import (
	"bytes"
	"reflect"
	"testing"

	"lvp/internal/axp21164"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/trace"
)

// formatEncodings is the cross-format matrix for the differential gate:
// VLT1 plus every VLT2 codec, and one deliberately awkward block size so
// records straddle block boundaries in odd places.
var formatEncodings = []struct {
	name string
	enc  func(tr *trace.Trace) ([]byte, error)
}{
	{"vlt1", func(tr *trace.Trace) ([]byte, error) {
		var buf bytes.Buffer
		err := trace.Write(&buf, tr)
		return buf.Bytes(), err
	}},
	{"vlt2-raw", vlt2Enc(trace.Writer2Options{})},
	{"vlt2-flate", vlt2Enc(trace.Writer2Options{Codec: trace.CodecFlate})},
	{"vlt2-fixed", vlt2Enc(trace.Writer2Options{Codec: trace.CodecFixed})},
	{"vlt2-fixed-flate", vlt2Enc(trace.Writer2Options{Codec: trace.CodecFixedFlate})},
	{"vlt2-odd-blocks", vlt2Enc(trace.Writer2Options{BlockRecords: 61})},
}

func vlt2Enc(opts trace.Writer2Options) func(tr *trace.Trace) ([]byte, error) {
	return func(tr *trace.Trace) ([]byte, error) {
		var buf bytes.Buffer
		err := trace.Write2(&buf, tr, opts)
		return buf.Bytes(), err
	}
}

// decodeVia materializes enc through the named decode path.
func decodeVia(t *testing.T, enc []byte, indexed bool) *trace.Trace {
	t.Helper()
	var d trace.Decoder
	var err error
	if indexed {
		d, err = trace.NewIndexedReaderBytes(enc)
	} else {
		d, err = trace.Open(bytes.NewReader(enc))
	}
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(d)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// simSpan620 runs an in-memory trace through the 620 model as one span.
func simSpan620(t *testing.T, tr *trace.Trace, ann trace.Annotation, mc ppc620.Config, name string) ppc620.Stats {
	t.Helper()
	st, err := ppc620.Simulate(tr.Slabs(ann), mc, name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// simSpan21164 runs an in-memory trace through the 21164 model as one span.
func simSpan21164(t *testing.T, tr *trace.Trace, ann trace.Annotation, name string) axp21164.Stats {
	t.Helper()
	st, err := axp21164.Simulate(tr.Slabs(ann), axp21164.Config21164(), name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFormatDifferential is the VLT1↔VLT2 differential gate: for every
// suite workload and every encoding in the matrix, the decoded records and
// metadata must be byte-identical to the in-memory trace, the annotation
// computed from the decoded records must match the in-memory annotation,
// and all three machine models must produce identical stats no matter
// which format fed them. The 620/620+ legs consume the PPC-target trace
// and the 21164 leg the AXP-target trace, mirroring the paper's pairing.
func TestFormatDifferential(t *testing.T) {
	mem := NewSuiteParallel(1, 1)
	cfg := lvp.Simple
	for _, b := range streamDiffBenches() {
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
			want620 := simSpan620(t, wantPPC, wantAnn, ppc620.Config620(), cfg.Name)
			want620p := simSpan620(t, wantPPC, wantAnn, ppc620.Config620Plus(), cfg.Name)
			want164 := simSpan21164(t, wantAXP, annAXP, cfg.Name)

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
					// Every decode path the format supports must
					// materialize the identical trace.
					paths := []bool{false}
					if f.name != "vlt1" {
						paths = append(paths, true) // indexed
					}
					var gotPPC *trace.Trace
					for _, indexed := range paths {
						gotPPC = decodeVia(t, encPPC, indexed)
						if gotPPC.Name != wantPPC.Name || gotPPC.Target != wantPPC.Target {
							t.Fatalf("metadata differs: got %q/%q want %q/%q",
								gotPPC.Name, gotPPC.Target, wantPPC.Name, wantPPC.Target)
						}
						if !reflect.DeepEqual(gotPPC.Records, wantPPC.Records) {
							t.Fatalf("decoded records differ (indexed=%v)", indexed)
						}
					}
					gotAXP := decodeVia(t, encAXP, f.name != "vlt1")
					if !reflect.DeepEqual(gotAXP.Records, wantAXP.Records) {
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
					if got := simSpan620(t, gotPPC, gotAnn, ppc620.Config620(), cfg.Name); !reflect.DeepEqual(got, want620) {
						t.Fatalf("620 stats differ:\n mem  %+v\n file %+v", want620, got)
					}
					if got := simSpan620(t, gotPPC, gotAnn, ppc620.Config620Plus(), cfg.Name); !reflect.DeepEqual(got, want620p) {
						t.Fatalf("620+ stats differ:\n mem  %+v\n file %+v", want620p, got)
					}
					gotAnnAXP, _, err := lvp.Annotate(gotAXP, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := simSpan21164(t, gotAXP, gotAnnAXP, cfg.Name); !reflect.DeepEqual(got, want164) {
						t.Fatalf("21164 stats differ:\n mem  %+v\n file %+v", want164, got)
					}
				})
			}
		})
	}
}
