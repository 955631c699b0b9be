package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
)

// TestSimStatsGolden pins every machine-model and annotation statistic the
// suite produces — 17 workloads × {none, Simple, Limit, Perfect} on the 620
// and the 21164, Simple on the 620+, and the unit counters of five LVP
// configurations on both targets — to a checked-in canonical JSON dump. A
// refactor of the models, the LVP unit or the record pipeline must leave
// every simulated decision, and so every byte, unchanged.
// Regenerate deliberately with: go test ./internal/exp -run SimStatsGolden -update
func TestSimStatsGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("simulates every workload under four configurations; skipped in -short and under the race detector")
	}
	s := NewSuiteParallel(1, 0)
	type row struct {
		Key string
		Val any
	}
	var rows []row
	add := func(key string, v any, err error) {
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		rows = append(rows, row{key, v})
	}
	cfgs := []*lvp.Config{nil, &lvp.Simple, &lvp.Limit, &lvp.Perfect}
	for _, b := range bench.All() {
		for _, cfg := range cfgs {
			name := "none"
			if cfg != nil {
				name = cfg.Name
			}
			st620, err := s.Sim620(b.Name, ppc620.Config620(), cfg)
			add("620/"+b.Name+"/"+name, st620, err)
			st164, err := s.Sim21164(b.Name, axp21164.Config21164(), cfg)
			add("21164/"+b.Name+"/"+name, st164, err)
		}
		stp, err := s.Sim620(b.Name, ppc620.Config620Plus(), &lvp.Simple)
		add("620+/"+b.Name+"/Simple", stp, err)
		for _, cfg := range []lvp.Config{lvp.Simple, lvp.Constant, lvp.Limit, lvp.SimpleTagged, lvp.SimpleAssoc4} {
			for _, tgt := range []prog.Target{prog.PPC, prog.AXP} {
				ast, err := s.AnnotationStats(b.Name, tgt, cfg)
				add("ann/"+b.Name+"/"+tgt.Name+"/"+cfg.Name, ast, err)
			}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "simstats.golden", buf.Bytes())
}

// checkGolden compares got against testdata/<name>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		i := firstDiff(got, want)
		t.Fatalf("output diverged from %s at byte %d (regenerate with -update if intended)\ngot : ...%q\nwant: ...%q",
			golden, i, window(got, i), window(want, i))
	}
}

// firstDiff is the index of the first byte where a and b differ (the shorter
// length when one is a prefix of the other).
func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// window is the ±80-byte neighbourhood of offset i in p, for diff messages.
func window(p []byte, i int) []byte {
	return p[max(0, i-80):min(len(p), i+80)]
}
