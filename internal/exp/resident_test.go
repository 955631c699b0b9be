package exp

import (
	"testing"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/prog"
)

// TestTraceResidentBytes bounds the compact in-memory trace: the scale-1
// suite's traces, memory-op lanes and static rows included, hold at most
// 17 bytes per record (a Record is 48; 16.7 measured). Trace.ResidentBytes
// sums every lane's capacity times its element size.
func TestTraceResidentBytes(t *testing.T) {
	s := NewSuite(1)
	var recs, bytes int64
	for _, b := range bench.All() {
		for _, target := range []prog.Target{prog.PPC, prog.AXP} {
			tr, err := s.Trace(b.Name, target)
			if err != nil {
				t.Fatal(err)
			}
			recs += int64(tr.Len())
			bytes += tr.ResidentBytes()
		}
	}
	perRec := float64(bytes) / float64(recs)
	t.Logf("%d records, %.1f MB resident, %.2f B/record", recs, float64(bytes)/(1<<20), perRec)
	if perRec > 17 {
		t.Fatalf("traces hold %.2f B/record, want <= 17", perRec)
	}
	if got := s.Metrics.Gauge("trace.resident_bytes").Value(); got != bytes {
		t.Fatalf("trace.resident_bytes gauge = %d, want %d", got, bytes)
	}
}

// TestUnitRunResidentBytes checks the annotate.resident_bytes gauge: after
// a small run it equals the summed length of the cached unit runs' states
// (one byte per load per hardware identity), however many callers asked
// for each run and under whichever name.
func TestUnitRunResidentBytes(t *testing.T) {
	s := NewSuite(1)
	renamed := lvp.Simple
	renamed.Name = "Simple-again" // same hardware: shares Simple's run
	type req struct {
		name   string
		target prog.Target
		cfg    lvp.Config
	}
	reqs := []req{
		{"quick", prog.PPC, lvp.Simple}, {"quick", prog.PPC, lvp.Perfect},
		{"quick", prog.AXP, lvp.Simple}, {"grep", prog.PPC, lvp.Constant},
		{"quick", prog.PPC, renamed}, // last: no run of its own
	}
	for _, r := range reqs {
		if _, _, err := s.Annotation(r.name, r.target, r.cfg); err != nil {
			t.Fatal(err)
		}
	}
	cfg := lvp.Simple
	if _, err := s.Sim21164("quick", axp21164.Config21164(), &cfg); err != nil {
		t.Fatal(err)
	}
	var want int64
	runs := reqs[:len(reqs)-1]
	for _, r := range runs {
		run, err := s.runUnit(r.name, r.target, r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := s.Trace(r.name, r.target)
		if err != nil {
			t.Fatal(err)
		}
		if len(run.states) != tr.Mem().Len() {
			t.Fatalf("%s/%s %s: %d states for %d loads", r.name, r.target.Name, r.cfg.Name, len(run.states), tr.Mem().Len())
		}
		want += int64(len(run.states))
	}
	if n := s.cacheState().runs.Len(); n != len(runs) {
		t.Fatalf("%d unit runs cached, want %d", n, len(runs))
	}
	if got := s.Metrics.Gauge("annotate.resident_bytes").Value(); got != want {
		t.Fatalf("annotate.resident_bytes = %d, want %d", got, want)
	}
}
