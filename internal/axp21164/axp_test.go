package axp21164

import (
	"testing"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

func mkTrace(recs []trace.Record) *trace.Trace {
	pc := uint64(0x1000)
	for i := range recs {
		if recs[i].PC == 0 {
			recs[i].PC = pc
		}
		pc = recs[i].PC + isa.InstBytes
	}
	return trace.FromRecords("t", "axp", recs)
}

// simTrace simulates a trace whose annotation fits it, which cannot fail.
func simTrace(tr *trace.Trace, ann trace.Annotation, cfg Config, lvpName string) Stats {
	st, err := Simulate(tr, ann, cfg, lvpName, nil)
	if err != nil {
		panic(err)
	}
	return st
}

func TestInOrderDualIssue(t *testing.T) {
	// Independent adds: 2 integer pipes -> IPC ~2.
	var recs []trace.Record
	for i := 0; i < 4000; i++ {
		recs = append(recs, trace.Record{Op: isa.ADD, Rd: isa.Reg(5 + i%8), Ra: 1, Rb: 2})
	}
	s := simTrace(mkTrace(recs), nil, Config21164(), "")
	if ipc := s.IPC(); ipc < 1.8 || ipc > 2.2 {
		t.Errorf("independent adds IPC = %.2f, want ~2 (two integer pipes)", ipc)
	}
}

func TestMixedIntFPWider(t *testing.T) {
	// Interleaved independent int and FP ops can use all four slots.
	var recs []trace.Record
	for i := 0; i < 2000; i++ {
		recs = append(recs,
			trace.Record{Op: isa.ADD, Rd: 5, Ra: 1, Rb: 2},
			trace.Record{Op: isa.SUB, Rd: 6, Ra: 1, Rb: 2},
			trace.Record{Op: isa.FADD, Rd: 7, Ra: 1, Rb: 2},
			trace.Record{Op: isa.FMUL, Rd: 8, Ra: 2, Rb: 3},
		)
	}
	s := simTrace(mkTrace(recs), nil, Config21164(), "")
	if ipc := s.IPC(); ipc < 3.0 {
		t.Errorf("mixed int/FP IPC = %.2f, want near 4", ipc)
	}
}

func TestInOrderStallsOnDependence(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 4000; i++ {
		recs = append(recs, trace.Record{Op: isa.ADD, Rd: 5, Ra: 5, Rb: 5})
	}
	s := simTrace(mkTrace(recs), nil, Config21164(), "")
	if ipc := s.IPC(); ipc > 1.05 {
		t.Errorf("dependent chain IPC = %.2f, must be ~1", ipc)
	}
}

func loadUseTrace(n int) *trace.Trace {
	var recs []trace.Record
	for i := 0; i < n; i++ {
		recs = append(recs,
			trace.Record{Op: isa.LD, Rd: 5, Ra: 1, Addr: 0x100000, Value: 7, Size: 8, Class: isa.LoadIntData},
			trace.Record{Op: isa.ADD, Rd: 6, Ra: 5, Rb: 2},
		)
	}
	return mkTrace(recs)
}

func annLoads(tr *trace.Trace, st trace.PredState) trace.Annotation {
	ann := trace.NewAnnotation(tr)
	for i, r := range tr.Expand() {
		if r.IsLoad() {
			ann[i] = st
		}
	}
	return ann
}

func TestZeroCycleLoadSpeedsUp(t *testing.T) {
	tr := loadUseTrace(2000)
	base := simTrace(tr, nil, Config21164(), "")
	pred := simTrace(tr, annLoads(tr, trace.PredCorrect), Config21164(), "p")
	if pred.Cycles >= base.Cycles {
		t.Errorf("correct predictions must help the in-order core: %d >= %d",
			pred.Cycles, base.Cycles)
	}
}

func TestSquashPenaltyOnMisprediction(t *testing.T) {
	tr := loadUseTrace(2000)
	base := simTrace(tr, nil, Config21164(), "")
	bad := simTrace(tr, annLoads(tr, trace.PredIncorrect), Config21164(), "b")
	if bad.Cycles <= base.Cycles {
		t.Errorf("mispredictions must cost: %d <= %d", bad.Cycles, base.Cycles)
	}
	if bad.Squashes == 0 {
		t.Error("expected reissue-buffer squashes")
	}
}

func TestConstantLoadBypassesMemoryEvenOnMiss(t *testing.T) {
	// Loads striding far beyond the 8KB L1: the baseline blocks on every
	// miss; constant-annotated loads never touch memory.
	var recs []trace.Record
	for i := 0; i < 2000; i++ {
		recs = append(recs,
			trace.Record{Op: isa.LD, Rd: 5, Ra: 1,
				Addr: uint64(0x100000 + (i%512)*4096), Value: 7, Size: 8, Class: isa.LoadIntData},
			trace.Record{Op: isa.ADD, Rd: 6, Ra: 5, Rb: 2},
		)
	}
	tr := mkTrace(recs)
	base := simTrace(tr, nil, Config21164(), "")
	cons := simTrace(tr, annLoads(tr, trace.PredConstant), Config21164(), "c")
	if cons.Cycles >= base.Cycles/2 {
		t.Errorf("CVU constants should eliminate miss stalls: %d vs %d",
			cons.Cycles, base.Cycles)
	}
	if cons.L1.Accesses != 0 {
		t.Errorf("constant loads must not access the L1 (got %d accesses)", cons.L1.Accesses)
	}
	if base.MissStallCycles == 0 {
		t.Error("baseline should suffer blocking-miss stalls")
	}
}

func TestPredictionCancelledOnL1Miss(t *testing.T) {
	// Same striding loads annotated Correct: the 21164 cancels the
	// prediction on an L1 miss with no penalty, so the run should cost
	// about the same as the unpredicted baseline.
	var recs []trace.Record
	for i := 0; i < 2000; i++ {
		recs = append(recs,
			trace.Record{Op: isa.LD, Rd: 5, Ra: 1,
				Addr: uint64(0x100000 + (i%512)*4096), Value: 7, Size: 8, Class: isa.LoadIntData},
			trace.Record{Op: isa.ADD, Rd: 6, Ra: 5, Rb: 2},
		)
	}
	tr := mkTrace(recs)
	base := simTrace(tr, nil, Config21164(), "")
	pred := simTrace(tr, annLoads(tr, trace.PredCorrect), Config21164(), "p")
	if pred.PredictionsCancelled == 0 {
		t.Error("expected cancelled predictions for missing loads")
	}
	ratio := float64(pred.Cycles) / float64(base.Cycles)
	if ratio > 1.02 {
		t.Errorf("cancelled predictions must not cost: ratio %.3f", ratio)
	}
}

func TestBlockingMissStallsPipe(t *testing.T) {
	// One missing load followed by many independent adds: with a
	// blocking (no-MAF) L1, the adds wait for the fill.
	recs := []trace.Record{
		{Op: isa.LD, Rd: 5, Ra: 1, Addr: 0xF00000, Value: 7, Size: 8, Class: isa.LoadIntData},
	}
	for i := 0; i < 40; i++ {
		recs = append(recs, trace.Record{Op: isa.ADD, Rd: 6, Ra: 1, Rb: 2})
	}
	s := simTrace(mkTrace(recs), nil, Config21164(), "")
	// 40 independent adds alone would take ~20 cycles; the miss adds a
	// memory-latency stall.
	if s.Cycles < Config21164().MemLatency {
		t.Errorf("blocking miss did not stall: %d cycles", s.Cycles)
	}
}

func TestBranchPenalty(t *testing.T) {
	mk := func(alternate bool) *trace.Trace {
		var recs []trace.Record
		for i := 0; i < 2000; i++ {
			taken := true
			if alternate {
				taken = i%2 == 0
			}
			recs = append(recs,
				trace.Record{PC: 0x1000, Op: isa.ADD, Rd: 5, Ra: 1, Rb: 2},
				trace.Record{PC: 0x1004, Op: isa.BEQ, Ra: 5, Rb: 5, Taken: taken, Targ: 0x1000},
			)
		}
		return trace.FromRecords("", "", recs)
	}
	good := simTrace(mk(false), nil, Config21164(), "")
	bad := simTrace(mk(true), nil, Config21164(), "")
	if bad.Cycles <= good.Cycles {
		t.Errorf("alternating branches should cost more: %d <= %d", bad.Cycles, good.Cycles)
	}
}

func TestDeterministic(t *testing.T) {
	tr := loadUseTrace(500)
	a := simTrace(tr, nil, Config21164(), "")
	b := simTrace(tr, nil, Config21164(), "")
	if a.Cycles != b.Cycles || a.IPC() != b.IPC() {
		t.Error("nondeterministic simulation")
	}
}

func TestStatsBasics(t *testing.T) {
	tr := loadUseTrace(100)
	s := simTrace(tr, annLoads(tr, trace.PredCorrect), Config21164(), "Simple")
	if s.Machine != "21164" || s.LVPConfig != "Simple" {
		t.Errorf("labels: %q %q", s.Machine, s.LVPConfig)
	}
	if s.Instructions != 200 {
		t.Errorf("instructions = %d", s.Instructions)
	}
	if s.L1MissesPerInstruction() < 0 {
		t.Error("bad miss rate")
	}
	var zero Stats
	if zero.IPC() != 0 || zero.L1MissesPerInstruction() != 0 {
		t.Error("zero stats must not divide by zero")
	}
}

// TestComplexLatencies reads the 21164's latency table: every row issues at
// interval 1 (the in-order model pipelines every unit), and a dependent
// chain of multiplies, divides or FP divides runs at the row's result
// latency per instruction.
func TestComplexLatencies(t *testing.T) {
	lat := Config21164().Latencies()
	for row, l := range map[string]isa.Latency{"SimpleInt": lat.SimpleInt, "Mul": lat.Mul, "Div": lat.Div,
		"Load": lat.Load, "Store": lat.Store, "SimpleFP": lat.SimpleFP, "ComplexFP": lat.ComplexFP, "Branch": lat.Branch} {
		if l.Issue != 1 {
			t.Errorf("%s: issue interval %d, want 1", row, l.Issue)
		}
	}
	for _, op := range []isa.Op{isa.MUL, isa.DIV, isa.FDIV} {
		const n = 50
		recs := make([]trace.Record, n)
		for i := range recs {
			recs[i] = trace.Record{Op: op, Rd: 5, Ra: 5, Rb: 5}
		}
		s := simTrace(mkTrace(recs), nil, Config21164(), "")
		// Each instruction issues when its predecessor's result is ready;
		// the run ends on the cycle the last one issues.
		if want := 1 + (n-1)*lat.Result(op); s.Cycles != want {
			t.Errorf("%d dependent %vs take %d cycles, want %d (result latency %d)", n, op, s.Cycles, want, lat.Result(op))
		}
	}
}

func TestNonBlockingConfigHelps(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 500; i++ {
		recs = append(recs,
			trace.Record{Op: isa.LD, Rd: isa.Reg(5 + i%8), Ra: 1,
				Addr: uint64(0x100000 + i*4096), Value: 1, Size: 8, Class: isa.LoadIntData},
			trace.Record{Op: isa.ADD, Rd: 20, Ra: 1, Rb: 2},
		)
	}
	tr := mkTrace(recs)
	blocking := simTrace(tr, nil, Config21164(), "")
	cfg := Config21164()
	cfg.NonBlocking = true
	maf := simTrace(tr, nil, cfg, "")
	if maf.Cycles >= blocking.Cycles {
		t.Errorf("MAF (%d cycles) should beat blocking misses (%d)", maf.Cycles, blocking.Cycles)
	}
}
