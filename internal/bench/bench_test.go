package bench

import (
	"bytes"
	"reflect"
	"testing"

	"lvp/internal/locality"
	"lvp/internal/prog"
	"lvp/internal/vm"
)

const testMaxSteps = 20_000_000

// TestAllBenchmarksRun builds and executes every registered benchmark on
// both targets and checks that each halts, produces output, and is
// deterministic across two independent builds.
func TestAllBenchmarksRun(t *testing.T) {
	for _, bm := range All() {
		for _, tg := range prog.Targets {
			t.Run(bm.Name+"/"+tg.Name, func(t *testing.T) {
				p, err := bm.Build(tg, 1)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				res, err := vm.Exec(p, testMaxSteps)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if len(res.Output) == 0 {
					t.Fatal("benchmark produced no output")
				}
				for _, v := range res.Output {
					if int64(v) == -1 {
						t.Fatal("benchmark signalled internal failure (-1)")
					}
				}
				if res.Steps < 5_000 {
					t.Errorf("only %d dynamic instructions; too small to be meaningful", res.Steps)
				}
				// Determinism: rebuild and rerun.
				p2, err := bm.Build(tg, 1)
				if err != nil {
					t.Fatalf("rebuild: %v", err)
				}
				res2, err := vm.Exec(p2, testMaxSteps)
				if err != nil {
					t.Fatalf("rerun: %v", err)
				}
				if !reflect.DeepEqual(res.Output, res2.Output) || res.Steps != res2.Steps {
					t.Errorf("nondeterministic: %v/%d vs %v/%d",
						res.Output, res.Steps, res2.Output, res2.Steps)
				}
			})
		}
	}
}

// TestGrepCountMatchesGo cross-checks the VLR grep against Go's bytes.Count
// on the identical generated input.
func TestGrepCountMatchesGo(t *testing.T) {
	bm, err := ByName("grep")
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range prog.Targets {
		want := uint64(countOverlapping(GrepText(tg, 1), []byte(GrepPattern)))
		p, err := bm.Build(tg, 1)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		res, err := vm.Exec(p, testMaxSteps)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if res.Output[0] != want {
			t.Errorf("%s: grep count = %d, want %d", tg.Name, res.Output[0], want)
		}
	}
}

func countOverlapping(text, pat []byte) int {
	n := 0
	for i := 0; i+len(pat) <= len(text); i++ {
		if bytes.Equal(text[i:i+len(pat)], pat) {
			n++
		}
	}
	return n
}

// TestScaleGrowsWork checks that scale actually increases run length.
func TestScaleGrowsWork(t *testing.T) {
	bm, err := ByName("grep")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := bm.Build(prog.AXP, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := bm.Build(prog.AXP, 2)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := vm.Exec(p1, testMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := vm.Exec(p2, testMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Steps < r1.Steps*3/2 {
		t.Errorf("scale 2 ran %d steps vs %d at scale 1; expected ~2x", r2.Steps, r1.Steps)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("doesnotexist"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestNamesMatchAll(t *testing.T) {
	names := Names()
	bms := All()
	if len(names) != len(bms) {
		t.Fatalf("Names()=%d entries, All()=%d", len(names), len(bms))
	}
	seen := map[string]bool{}
	for i, b := range bms {
		if names[i] != b.Name {
			t.Errorf("order mismatch at %d: %q vs %q", i, names[i], b.Name)
		}
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
	}
}

// TestCompressHaltsAtScale8 runs compress at the largest scale lvpd accepts
// on both targets: the run reaches its HALT with a dictionary of exactly
// the entries a Go LZW pass over the same text inserts. Its hash table had
// a fixed 4096 slots once, which the scale-6 text fills, and the probe for
// an empty slot never ended.
func TestCompressHaltsAtScale8(t *testing.T) {
	bm, err := ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range prog.Targets {
		p, err := bm.Build(tg, 8)
		if err != nil {
			t.Fatalf("%s: build: %v", tg.Name, err)
		}
		res, err := vm.Exec(p, testMaxSteps)
		if err != nil {
			t.Fatalf("%s: run: %v", tg.Name, err)
		}
		entries := lzwEntries(compressText(tg, 8))
		if entries < 4096 {
			t.Fatalf("%s: scale 8 inserts %d entries, no more than the 4096 slots of scale 1", tg.Name, entries)
		}
		if len(res.Output) != 2 || res.Output[1] != uint64(256+entries) {
			t.Fatalf("%s: output %v, want a dictionary size of %d", tg.Name, res.Output, 256+entries)
		}
	}
}

// TestLocalityStableAcrossScales validates the DESIGN.md substitution claim
// that the scaled-down run lengths already exhibit converged value locality:
// doubling the run length must not move depth-1 locality by more than a few
// points for representative benchmarks.
func TestLocalityStableAcrossScales(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-2 runs are slower")
	}
	for _, name := range []string{"grep", "compress", "sc", "cjpeg"} {
		bm, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		measure := func(scale int) float64 {
			p, err := bm.Build(prog.PPC, scale)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tr, _, err := vm.Run(p, testMaxSteps)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return locality.Measure(tr, locality.DefaultEntries, 1)[0].Overall.Percent()
		}
		l1, l2 := measure(1), measure(2)
		if diff := l2 - l1; diff > 8 || diff < -8 {
			t.Errorf("%s: depth-1 locality moved %.1f points between scale 1 (%.1f%%) and 2 (%.1f%%)",
				name, diff, l1, l2)
		}
	}
}
