package ppc620

import (
	"testing"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

// mkTrace builds a trace from records, fixing PCs sequentially when zero.
func mkTrace(recs []trace.Record) *trace.Trace {
	pc := uint64(0x1000)
	for i := range recs {
		if recs[i].PC == 0 {
			recs[i].PC = pc
		}
		pc = recs[i].PC + isa.InstBytes
	}
	return trace.FromRecords("t", "ppc", recs)
}

// simTrace simulates a trace whose annotation fits it, which cannot fail.
func simTrace(tr *trace.Trace, ann trace.Annotation, cfg Config, lvpName string) Stats {
	st, err := Simulate(tr, ann, cfg, lvpName, nil)
	if err != nil {
		panic(err)
	}
	return st
}

func addChain(n int, dep bool) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		if dep {
			recs[i] = trace.Record{Op: isa.ADD, Rd: 5, Ra: 5, Rb: 5}
		} else {
			recs[i] = trace.Record{Op: isa.ADD, Rd: isa.Reg(5 + i%8), Ra: 1, Rb: 2}
		}
	}
	return recs
}

func TestIndependentAddsSuperscalar(t *testing.T) {
	s := simTrace(mkTrace(addChain(4000, false)), nil, Config620(), "")
	if ipc := s.IPC(); ipc < 1.5 {
		t.Errorf("independent adds IPC = %.2f; expected superscalar (>1.5)", ipc)
	}
	if s.Cycles <= 0 || s.Instructions != 4000 {
		t.Errorf("bad counts: %+v", s)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	s := simTrace(mkTrace(addChain(4000, true)), nil, Config620(), "")
	if ipc := s.IPC(); ipc > 1.1 {
		t.Errorf("fully dependent adds IPC = %.2f; must be ~1", ipc)
	}
}

func TestLoadUseChainLatency(t *testing.T) {
	// load -> use -> load -> use serial chain (each load address depends
	// on the previous use): cycles per pair should reflect the 2-cycle
	// L1 latency.
	var recs []trace.Record
	for i := 0; i < 1000; i++ {
		recs = append(recs,
			trace.Record{Op: isa.LD, Rd: 5, Ra: 5, Addr: 0x100000, Value: 0x100000, Size: 8, Class: isa.LoadIntData},
			trace.Record{Op: isa.ADD, Rd: 5, Ra: 5, Rb: 0},
		)
	}
	s := simTrace(mkTrace(recs), nil, Config620(), "")
	perPair := float64(s.Cycles) / 1000
	if perPair < 2.5 {
		t.Errorf("load-use chain %.2f cycles/pair; expected >= ~3 (2-cycle load + add)", perPair)
	}
}

func annotateAll(n int, st trace.PredState) trace.Annotation {
	ann := make(trace.Annotation, n)
	for i := range ann {
		if i%2 == 0 { // loads at even indices in the chain traces below
			ann[i] = st
		}
	}
	return ann
}

func TestCorrectPredictionCollapsesChain(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 1000; i++ {
		recs = append(recs,
			trace.Record{Op: isa.LD, Rd: 5, Ra: 5, Addr: 0x100000, Value: 0x100000, Size: 8, Class: isa.LoadIntData},
			trace.Record{Op: isa.ADD, Rd: 5, Ra: 5, Rb: 0},
		)
	}
	tr := mkTrace(recs)
	base := simTrace(tr, nil, Config620(), "")
	pred := simTrace(tr, annotateAll(len(recs), trace.PredCorrect), Config620(), "pred")
	if pred.Cycles >= base.Cycles {
		t.Errorf("correct predictions did not speed up the chain: %d >= %d",
			pred.Cycles, base.Cycles)
	}
	if pred.LoadStates[trace.PredCorrect] != 1000 {
		t.Errorf("load state accounting: %v", pred.LoadStates)
	}
	// Figure 7 histogram must have recorded every correctly-predicted load.
	tot := 0
	for _, v := range pred.VerifyLatency {
		tot += v
	}
	if tot != 1000 {
		t.Errorf("verify-latency histogram total = %d, want 1000", tot)
	}
}

func TestIncorrectPredictionCostsALittle(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 1000; i++ {
		recs = append(recs,
			trace.Record{Op: isa.LD, Rd: 5, Ra: 5, Addr: 0x100000, Value: 0x100000, Size: 8, Class: isa.LoadIntData},
			trace.Record{Op: isa.ADD, Rd: 5, Ra: 5, Rb: 0},
		)
	}
	tr := mkTrace(recs)
	base := simTrace(tr, nil, Config620(), "")
	bad := simTrace(tr, annotateAll(len(recs), trace.PredIncorrect), Config620(), "bad")
	if bad.Cycles <= base.Cycles {
		t.Errorf("mispredictions should cost cycles: %d <= %d", bad.Cycles, base.Cycles)
	}
	// Paper: worst case is one extra cycle of latency per load plus
	// structural effects — not a blowup.
	if float64(bad.Cycles) > 1.8*float64(base.Cycles) {
		t.Errorf("misprediction cost implausibly high: %d vs %d", bad.Cycles, base.Cycles)
	}
}

func TestConstantLoadSkipsCache(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 500; i++ {
		recs = append(recs,
			trace.Record{Op: isa.LD, Rd: 5, Ra: 1, Addr: 0x100000, Value: 7, Size: 8, Class: isa.LoadIntData},
			trace.Record{Op: isa.ADD, Rd: 6, Ra: 5, Rb: 0},
		)
	}
	tr := mkTrace(recs)
	base := simTrace(tr, nil, Config620(), "")
	cons := simTrace(tr, annotateAll(len(recs), trace.PredConstant), Config620(), "cvu")
	if cons.CacheAccesses >= base.CacheAccesses {
		t.Errorf("constant loads should reduce cache accesses: %d >= %d",
			cons.CacheAccesses, base.CacheAccesses)
	}
}

func TestBranchMispredictsCostCycles(t *testing.T) {
	// Alternating taken/not-taken branch: the 2-bit BHT mispredicts a
	// lot; compare against an always-taken (predictable) branch.
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
		return trace.FromRecords("b", "", recs)
	}
	predictable := simTrace(mk(false), nil, Config620(), "")
	alternating := simTrace(mk(true), nil, Config620(), "")
	if alternating.Cycles <= predictable.Cycles {
		t.Errorf("alternating branches should cost more: %d <= %d",
			alternating.Cycles, predictable.Cycles)
	}
	if alternating.Branch.CondMispredict == 0 {
		t.Error("expected conditional mispredictions")
	}
}

func Test620PlusFasterOnParallelCode(t *testing.T) {
	// Memory-heavy parallel code: the extra LSU and buffers should help.
	var recs []trace.Record
	for i := 0; i < 3000; i++ {
		recs = append(recs,
			trace.Record{Op: isa.LD, Rd: isa.Reg(5 + i%4), Ra: 1,
				Addr: uint64(0x100000 + 8*(i%64)), Value: 1, Size: 8, Class: isa.LoadIntData},
			trace.Record{Op: isa.ADD, Rd: isa.Reg(10 + i%4), Ra: isa.Reg(5 + i%4), Rb: 2},
			trace.Record{Op: isa.SD, Rb: isa.Reg(10 + i%4), Ra: 1,
				Addr: uint64(0x200000 + 8*(i%64)), Value: 1, Size: 8},
		)
	}
	tr := mkTrace(recs)
	base := simTrace(tr, nil, Config620(), "")
	plus := simTrace(tr, nil, Config620Plus(), "")
	if plus.Cycles >= base.Cycles {
		t.Errorf("620+ (%d cycles) should beat 620 (%d) on parallel memory code",
			plus.Cycles, base.Cycles)
	}
}

func TestBankConflictsDetected(t *testing.T) {
	// Loads and stores hammering the same bank (distinct lines, both on
	// bank 0 with 64-byte line interleave) in tight alternation.
	var recs []trace.Record
	for i := 0; i < 2000; i++ {
		recs = append(recs,
			trace.Record{Op: isa.LD, Rd: isa.Reg(5 + i%4), Ra: 1, Addr: 0x100000, Value: 1, Size: 8, Class: isa.LoadIntData},
			trace.Record{Op: isa.SD, Rb: 2, Ra: 1, Addr: 0x100080, Value: 1, Size: 8},
		)
	}
	s := simTrace(mkTrace(recs), nil, Config620(), "")
	if s.BankConflicts == 0 {
		t.Error("same-bank load/store traffic should produce bank conflicts")
	}
	if s.BankConflictCycles > s.Cycles {
		t.Errorf("conflict cycles %d exceed total cycles %d", s.BankConflictCycles, s.Cycles)
	}
}

func TestRSWaitAccounting(t *testing.T) {
	s := simTrace(mkTrace(addChain(1000, true)), nil, Config620(), "")
	if s.RSWaitN[SCFX] == 0 {
		t.Fatal("no SCFX instructions accounted")
	}
	if s.AvgRSWait(SCFX) <= 0 {
		t.Error("dependent adds must show nonzero dependency wait")
	}
	s2 := simTrace(mkTrace(addChain(1000, false)), nil, Config620(), "")
	if s2.AvgRSWait(SCFX) >= s.AvgRSWait(SCFX) {
		t.Error("independent adds must wait less than a dependent chain")
	}
}

func TestSimulationDeterministic(t *testing.T) {
	tr := mkTrace(addChain(500, false))
	a := simTrace(tr, nil, Config620(), "")
	b := simTrace(tr, nil, Config620(), "")
	if a.Cycles != b.Cycles {
		t.Errorf("nondeterministic: %d vs %d", a.Cycles, b.Cycles)
	}
}

func TestVerifyBucketMapping(t *testing.T) {
	cases := map[int]int{0: 0, 3: 0, 4: 1, 5: 2, 6: 3, 7: 4, 8: 5, 100: 5}
	for lat, want := range cases {
		if got := verifyBucket(lat); got != want {
			t.Errorf("verifyBucket(%d) = %d, want %d", lat, got, want)
		}
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// A load immediately after an executed store to the same address
	// forwards from the store queue (1 cycle, no cache access).
	var recs []trace.Record
	for i := 0; i < 500; i++ {
		recs = append(recs,
			trace.Record{Op: isa.SD, Rb: 2, Ra: 1, Addr: 0x100000, Value: 5, Size: 8},
			trace.Record{Op: isa.NOP},
			trace.Record{Op: isa.NOP},
			trace.Record{Op: isa.LD, Rd: 5, Ra: 1, Addr: 0x100000, Value: 5, Size: 8, Class: isa.LoadIntData},
		)
	}
	s := simTrace(mkTrace(recs), nil, Config620(), "")
	if s.AliasRefetches > 50 {
		t.Errorf("forwarded loads should rarely refetch, got %d refetches", s.AliasRefetches)
	}
}

func TestAliasRefetchDetected(t *testing.T) {
	// A store whose data depends on a long-latency divide, immediately
	// followed by a load of the same address: the load issues past the
	// stalled store and must be refetched by the alias logic.
	var recs []trace.Record
	for i := 0; i < 300; i++ {
		recs = append(recs,
			trace.Record{Op: isa.DIV, Rd: 7, Ra: 1, Rb: 2},
			trace.Record{Op: isa.SD, Rb: 7, Ra: 1, Addr: 0x100000, Value: 5, Size: 8},
			trace.Record{Op: isa.LD, Rd: 5, Ra: 3, Addr: 0x100000, Value: 5, Size: 8, Class: isa.LoadIntData},
		)
	}
	s := simTrace(mkTrace(recs), nil, Config620(), "")
	if s.AliasRefetches == 0 {
		t.Error("expected store-to-load alias refetches")
	}
}

func TestLoadsBypassUnrelatedSlowStores(t *testing.T) {
	// Loads to a different address must NOT wait for a store stalled on
	// a divide (out-of-order LSU benefit).
	mk := func(sameAddr bool) int {
		var recs []trace.Record
		loadAddr := uint64(0x200000)
		if sameAddr {
			loadAddr = 0x100000
		}
		for i := 0; i < 300; i++ {
			recs = append(recs,
				trace.Record{Op: isa.DIV, Rd: 7, Ra: 1, Rb: 2},
				trace.Record{Op: isa.SD, Rb: 7, Ra: 1, Addr: 0x100000, Value: 5, Size: 8},
				trace.Record{Op: isa.LD, Rd: 5, Ra: 3, Addr: loadAddr, Value: 5, Size: 8, Class: isa.LoadIntData},
				trace.Record{Op: isa.ADD, Rd: 6, Ra: 5, Rb: 5},
			)
		}
		return simTrace(mkTrace(recs), nil, Config620(), "").Cycles
	}
	disjoint := mk(false)
	aliased := mk(true)
	if disjoint > aliased {
		t.Errorf("disjoint loads (%d cycles) should not be slower than aliased (%d)",
			disjoint, aliased)
	}
}

func TestMSHRLimitThrottlesMisses(t *testing.T) {
	// A stream of independent loads each missing a large L1: with MSHRs
	// bounded the run must be slower than with unbounded miss registers.
	var recs []trace.Record
	for i := 0; i < 1000; i++ {
		recs = append(recs, trace.Record{
			Op: isa.LD, Rd: isa.Reg(5 + i%8), Ra: 1,
			Addr: uint64(0x100000 + i*4096), Value: 1, Size: 8, Class: isa.LoadIntData,
		})
	}
	tr := mkTrace(recs)
	bounded := Config620()
	unbounded := Config620()
	unbounded.MSHRs = 0 // unlimited
	sb := simTrace(tr, nil, bounded, "")
	su := simTrace(tr, nil, unbounded, "")
	if sb.MSHRStalls == 0 {
		t.Fatal("expected MSHR stalls on a miss storm")
	}
	if sb.Cycles <= su.Cycles {
		t.Errorf("bounded MSHRs (%d cycles) should be slower than unbounded (%d)",
			sb.Cycles, su.Cycles)
	}
}

// TestComplexUnitsNotPipelined reads the 620's latency table. The MCFX is
// not pipelined, nor is the FPU for divide and square root: those rows hold
// their unit until their result, so their issue interval is their result
// latency, and independent instructions of each serialize at that
// interval. Every other row is pipelined (issue interval 1): simple FP, on
// the one FPU, issues about one per cycle although each takes several to
// finish.
func TestComplexUnitsNotPipelined(t *testing.T) {
	lat := Config620().Latencies()
	for _, tc := range []struct {
		row       string
		l         isa.Latency
		pipelined bool
		op        isa.Op // an instruction of the row; NOP: the row runs nothing here
	}{
		{"Mul", lat.Mul, false, isa.MUL},
		{"Div", lat.Div, false, isa.DIV},
		{"ComplexFP", lat.ComplexFP, false, isa.FDIV},
		{"SimpleFP", lat.SimpleFP, true, isa.FADD},
		{"SimpleInt", lat.SimpleInt, true, isa.NOP},
		{"Load", lat.Load, true, isa.NOP},
		{"Store", lat.Store, true, isa.NOP},
		{"Branch", lat.Branch, true, isa.NOP},
	} {
		want := tc.l.Result
		if tc.pipelined {
			want = 1
		}
		if tc.l.Issue != want {
			t.Errorf("%s: issue interval %d, want %d (pipelined %v)", tc.row, tc.l.Issue, want, tc.pipelined)
		}
		if tc.op == isa.NOP {
			continue
		}
		const n = 100
		recs := make([]trace.Record, n)
		for i := range recs {
			recs[i] = trace.Record{Op: tc.op, Rd: isa.Reg(5 + i%8), Ra: 1, Rb: 2}
		}
		s := simTrace(mkTrace(recs), nil, Config620(), "")
		if perOp := float64(s.Cycles) / n; perOp < float64(tc.l.Issue) || perOp >= float64(tc.l.Issue)+1 {
			t.Errorf("%s: independent %v %.2f cycles/op, want the issue interval %d", tc.row, tc.op, perOp, tc.l.Issue)
		}
	}
}

// TestRunEndsAfterLastMispredict pins the end of a run on a trace whose last
// record is a mispredicted branch: the run ends when that branch completes,
// not one cycle later, when a fetch past the end would first be allowed.
func TestRunEndsAfterLastMispredict(t *testing.T) {
	for _, tc := range []struct {
		taken  bool
		cycles int
	}{
		{false, 5}, // the BHT predicts taken: a mispredict at the end
		{true, 5},
	} {
		targ := uint64(0x1008)
		if tc.taken {
			targ = 0x1000
		}
		tr := trace.FromRecords("t", "ppc", []trace.Record{
			{PC: 0x1000, Op: isa.ADD, Rd: 5, Ra: 1, Rb: 2},
			{PC: 0x1004, Op: isa.BEQ, Ra: 5, Rb: 5, Imm: 0x1000, Taken: tc.taken, Targ: targ},
		})
		s := simTrace(tr, nil, Config620(), "")
		if s.Cycles != tc.cycles || s.Instructions != 2 {
			t.Errorf("taken=%v: %d cycles for %d instructions, want %d for 2", tc.taken, s.Cycles, s.Instructions, tc.cycles)
		}
		if !tc.taken && s.Branch.CondMispredict != 1 {
			t.Errorf("not-taken BEQ: %d mispredicts, want 1", s.Branch.CondMispredict)
		}
	}
}
