package exp

import (
	"io"
	"reflect"
	"testing"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// streamDiffBenches is the workload set for the differential tests: every
// benchmark normally, a fixed subset under -short (the race gate runs
// -short, and the full cross-product is too slow under the detector).
func streamDiffBenches() []bench.Benchmark {
	all := bench.All()
	if testing.Short() {
		return all[:4]
	}
	return all
}

// streamPipe builds the streaming gen → annotate front half of one cell: the
// functional VM's record batches annotated on the fly by an LVP unit under
// cfg. Nothing is materialized.
func streamPipe(t *testing.T, name string, target prog.Target, cfg lvp.Config, s *Suite) *lvp.Pipe {
	t.Helper()
	bm, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := bm.Build(target, s.Scale)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := lvp.NewPipe(vm.NewSource(p, s.MaxSteps), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

// drainSlabs materializes everything a slab source delivers.
func drainSlabs(t *testing.T, src trace.SlabSource) ([]trace.Record, trace.Annotation) {
	t.Helper()
	var recs []trace.Record
	var ann trace.Annotation
	for {
		r, st, err := src.NextSlab()
		if err == io.EOF {
			return recs, ann
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r...)
		ann = append(ann, st...)
	}
}

// runStreamDifferential is the library-level streaming differential: for
// each workload, the chain vm.NewSource → lvp.NewPipe must produce (a) the
// exact records and annotation of the suite's materialized trace and
// annotation, and (b) fed straight into each timing model's Simulate, stats
// identical to the suite's cached 620, 620+ and 21164 cells under Simple —
// the bounded-memory composition and the in-memory span path are one
// pipeline. With parallel=true the per-bench subtests run concurrently
// against one suite, so the suite caches are also exercised under
// contention.
func runStreamDifferential(t *testing.T, parallel bool) {
	mem := NewSuiteParallel(1, 1)
	for _, b := range streamDiffBenches() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			if parallel {
				t.Parallel()
			}
			cfg := lvp.Simple

			wantTr, err := mem.Trace(b.Name, prog.PPC)
			if err != nil {
				t.Fatal(err)
			}
			wantAnn, _, err := mem.Annotation(b.Name, prog.PPC, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recs, ann := drainSlabs(t, streamPipe(t, b.Name, prog.PPC, cfg, mem))
			if !reflect.DeepEqual(recs, wantTr.Expand()) {
				t.Fatal("streamed records differ from the materialized trace")
			}
			if !reflect.DeepEqual(ann, wantAnn) {
				t.Fatal("streamed annotation differs from the in-memory annotation")
			}

			for _, mc := range ppcMachines {
				got, err := ppc620.Simulate(streamPipe(t, b.Name, prog.PPC, cfg, mem), mc, cfg.Name, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := mem.Sim620(b.Name, mc, &cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s stats differ:\n suite  %+v\n stream %+v", mc.Name, want, got)
				}
			}
			got, err := axp21164.Simulate(streamPipe(t, b.Name, prog.AXP, cfg, mem), axp21164.Config21164(), cfg.Name, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mem.Sim21164(b.Name, axp21164.Config21164(), &cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("21164 stats differ:\n suite  %+v\n stream %+v", want, got)
			}
		})
	}
}

// TestStreamDifferential checks every workload serially.
func TestStreamDifferential(t *testing.T) {
	runStreamDifferential(t, false)
}

// TestStreamDifferentialParallel re-runs the differential with concurrent
// per-bench subtests racing through the shared suite caches (the race gate
// runs this under -race).
func TestStreamDifferentialParallel(t *testing.T) {
	runStreamDifferential(t, true)
}
