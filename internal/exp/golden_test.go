package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenExperiments returns the experiments the golden gate renders. In a
// normal build that is every registered experiment. Under the race
// detector (raceEnabled, set by build tag) the full double-render exceeds
// Go's default 10-minute package timeout on small machines, so the gate
// narrows to a subset chosen to still exercise every merge pattern:
// index-addressed row slots (table1, fig1, table3), slot-array reductions
// through GeoMean (lvptsweep), and the mutex-guarded integer accumulators
// (fig7, fig8) plus the simulation cache they share (table6).
func goldenExperiments() []Experiment {
	if !raceEnabled {
		return experiments
	}
	want := map[string]bool{
		"table1": true, "fig1": true, "table3": true,
		"lvptsweep": true, "table6": true, "fig7": true, "fig8": true,
	}
	var out []Experiment
	for _, e := range experiments {
		if want[e.Name] {
			out = append(out, e)
		}
	}
	return out
}

// renderAll runs the golden experiment set on a fresh suite with the given
// worker count and returns one rendered buffer per experiment.
func renderAll(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	s := NewSuiteParallel(1, workers)
	out := make(map[string][]byte, len(experiments))
	for _, e := range goldenExperiments() {
		var buf bytes.Buffer
		if err := e.Run(s, &buf); err != nil {
			t.Fatalf("workers=%d: %s: %v", workers, e.Name, err)
		}
		out[e.Name] = buf.Bytes()
	}
	return out
}

// TestGoldenSerialVsParallel is the correctness gate for the parallel
// experiment engine: every table and figure rendered by a serial suite must
// be byte-identical to the same experiment rendered by a suite running 8
// workers. Any ordering sensitivity in the fan-out, the single-flight
// caches, or the merge layer shows up here as a diff.
//
// The serial renders are also pinned to the checked-in
// testdata/render.golden, whose bytes are exactly `lvpsim -exp all` stdout
// (every experiment in registry order), so a change that shifts numbers in
// both runs alike still fails. Under the race detector, which renders only
// a subset, the file comparison is skipped.
// Regenerate deliberately with: go test ./internal/exp -run GoldenSerialVsParallel -update
func TestGoldenSerialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full experiment suite twice; skipped in -short")
	}
	serial := renderAll(t, 1)
	par := renderAll(t, 8)

	if len(serial) != len(par) {
		t.Fatalf("experiment count differs: %d vs %d", len(serial), len(par))
	}
	for _, e := range goldenExperiments() {
		a, b := serial[e.Name], par[e.Name]
		if len(a) == 0 {
			t.Errorf("%s: empty render", e.Name)
			continue
		}
		if !bytes.Equal(a, b) {
			i := firstDiff(a, b)
			t.Errorf("%s: serial and parallel output differ at byte %d\nserial  : ...%q\nparallel: ...%q",
				e.Name, i, window(a, i), window(b, i))
		}
	}
	if raceEnabled {
		return
	}
	var all bytes.Buffer
	for _, e := range experiments {
		all.Write(serial[e.Name])
	}
	if *updateGolden {
		checkGolden(t, "render.golden", all.Bytes())
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", "render.golden"))
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	// Walk the golden file experiment by experiment so a divergence is
	// reported against the experiment that rendered it.
	off := 0
	for _, e := range experiments {
		got := serial[e.Name]
		end := min(len(want), off+len(got))
		if !bytes.Equal(got, want[off:end]) {
			i := firstDiff(got, want[off:end])
			t.Fatalf("%s: render diverged from testdata/render.golden at byte %d of the experiment (regenerate with -update if intended)\ngot : ...%q\nwant: ...%q",
				e.Name, i, window(got, i), window(want[off:], i))
		}
		off = end
	}
	if off != len(want) {
		t.Fatalf("testdata/render.golden has %d bytes past the last experiment", len(want)-off)
	}
}

// TestGoldenRepeatedRuns pins run-to-run determinism at the default worker
// count: two independent suites must render a representative experiment
// identically (the cheap companion to the serial-vs-parallel gate above, so
// -short runs still cover the determinism contract).
func TestGoldenRepeatedRuns(t *testing.T) {
	render := func() []byte {
		s := NewSuite(1)
		var buf bytes.Buffer
		for _, name := range []string{"table1", "fig1", "table3"} {
			for _, e := range experiments {
				if e.Name == name {
					if err := e.Run(s, &buf); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("repeated runs differ")
	}
}
