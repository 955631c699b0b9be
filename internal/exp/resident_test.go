package exp

import (
	"testing"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/isa"
	"lvp/internal/lvp"
	"lvp/internal/prog"
	"lvp/internal/trace"
)

// TestTraceResidentBytes bounds the compact in-memory trace: the scale-1
// suite's traces, memory-op lanes, static rows and per-row tables included,
// hold at most 3.44 bytes per record (a Record is 48; 3.14 measured, with no
// row lane and every Value and Addr coded against the last on its row, or
// the last store's). Trace.ResidentBytes sums every lane's capacity times
// its element size. Every trace keeps its Values in the dense lanes (no
// Value exceptions), derives every row from control flow (no row
// exceptions) and fits the 16-bit row index.
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
			if n := valueExceptions(tr); n != 0 {
				t.Errorf("%s/%s: %d Value exceptions, want 0", b.Name, target.Name, n)
			}
			if n := rowExceptions(tr); n != 0 {
				t.Errorf("%s/%s: %d row exceptions, want 0", b.Name, target.Name, n)
			}
			if n := len(tr.Static()); n > trace.MaxStaticRows {
				t.Errorf("%s/%s: %d static rows, more than MaxStaticRows", b.Name, target.Name, n)
			}
		}
	}
	perRec := float64(bytes) / float64(recs)
	t.Logf("%d records, %.1f MB resident, %.2f B/record", recs, float64(bytes)/(1<<20), perRec)
	if perRec > 3.44 {
		t.Fatalf("traces hold %.2f B/record, want <= 3.44", perRec)
	}
	if got := s.Metrics.Gauge("trace.resident_bytes").Value(); got != bytes {
		t.Fatalf("trace.resident_bytes gauge = %d, want %d", got, bytes)
	}
}

// valueExceptions counts t's records that the compact trace keeps in its
// Value exception lane: a nonzero Value on a record that is not a load or a
// store and writes no register but R0 (isa.Dest).
func valueExceptions(t *trace.Trace) int {
	n := 0
	for _, r := range t.Expand() {
		if _, dest := isa.Dest(r.Inst()); !dest && !r.IsLoad() && !r.IsStore() && r.Value != 0 {
			n++
		}
	}
	return n
}

// rowExceptions counts t's records that the compact trace keeps in its row
// exception lane: a record after the first whose PC is not the last
// record's next PC (a branch's Targ, else PC + isa.InstBytes), or whose
// static row (the record without Value, Taken, Targ, and Addr on a memory
// op) is not the first one at its PC.
func rowExceptions(t *trace.Trace) int {
	n, next, first := 0, uint64(0), make(map[uint64]trace.Record)
	for i, r := range t.Expand() {
		want := next
		next = r.PC + isa.InstBytes
		if r.IsBranch() {
			next = r.Targ
		}
		r.Value, r.Taken, r.Targ = 0, false, 0
		if r.IsLoad() || r.IsStore() {
			r.Addr = 0
		}
		if _, ok := first[r.PC]; !ok {
			first[r.PC] = r
		}
		if i > 0 && (r.PC != want || first[r.PC] != r) {
			n++
		}
	}
	return n
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
