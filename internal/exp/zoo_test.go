package exp

import (
	"bytes"
	"flag"
	"sync"
	"testing"

	"lvp/internal/lvp"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from current output")

// TestZooSweepGoldenFile pins the full family × workload ablation table to
// a checked-in golden file: per-family coverage and accuracy per benchmark,
// and the interference totals. Any change to a predictor, a table
// organisation, or the sweep's reduction order shows up as a diff here.
// Regenerate deliberately with: go test ./internal/exp -run ZooSweepGolden -update
func TestZooSweepGoldenFile(t *testing.T) {
	s := NewSuiteParallel(1, 1)
	res, err := s.ZooSweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Render(&buf)

	checkGolden(t, "zoosweep.golden", buf.Bytes())
}

// TestZooSweepSerialVsParallel is the zoo's own determinism gate, run even
// under the race detector (where the full registry golden test narrows to
// other experiments): the rendered sweep must be byte-identical for every
// worker count, and concurrent cell builds must coalesce rather than race.
func TestZooSweepSerialVsParallel(t *testing.T) {
	render := func(workers int) []byte {
		s := NewSuiteParallel(1, workers)
		res, err := s.ZooSweep(nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.Render(&buf)
		return buf.Bytes()
	}
	serial := render(1)
	for _, workers := range []int{4, 8} {
		if par := render(workers); !bytes.Equal(serial, par) {
			t.Fatalf("zoosweep output differs between 1 and %d workers\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, serial, par)
		}
	}
}

// TestZooCellCoalesces pins the single-flight property: many goroutines
// requesting the same cell observe one result, and repeated sweeps reuse
// cached cells (the lvpd serving path and the sweep share builds).
func TestZooCellCoalesces(t *testing.T) {
	s := NewSuiteParallel(1, 4)
	const callers = 8
	results := make([]ZooCell, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := s.ZooCell("quick", "two-level")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = c
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d saw %+v, caller 0 saw %+v", i, results[i], results[0])
		}
	}
	if results[0].Family != "two-level" || results[0].Bench != "quick" || results[0].Loads == 0 {
		t.Fatalf("implausible cell %+v", results[0])
	}
}

// TestZooFamilySelection pins the selection precedence (argument over
// suite field over full registry) and name validation.
func TestZooFamilySelection(t *testing.T) {
	s := NewSuiteParallel(1, 4)

	if _, err := s.ZooSweep([]string{"nope"}); err == nil {
		t.Fatal("unknown family in argument did not error")
	}
	if _, err := s.ZooCell("quick", "nope"); err == nil {
		t.Fatal("unknown family in cell did not error")
	}

	s.ZooFamilies = []string{"stride"}
	res, err := s.ZooSweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Families) != 1 || res.Families[0] != "stride" {
		t.Fatalf("suite selection gave families %v, want [stride]", res.Families)
	}
	res, err = s.ZooSweep([]string{"last-value", "two-level"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Families) != 2 || res.Families[0] != "last-value" || res.Families[1] != "two-level" {
		t.Fatalf("explicit selection gave families %v", res.Families)
	}

	s.ZooFamilies = nil
	res, err = s.ZooSweep(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Families), len(lvp.FamilyNames()); got != want {
		t.Fatalf("default selection has %d families, registry %d", got, want)
	}
}
