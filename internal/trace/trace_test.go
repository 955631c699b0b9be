package trace

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lvp/internal/isa"
)

func sampleTrace() *Trace {
	return &Trace{
		Name:   "sample",
		Target: "axp",
		Records: []Record{
			{PC: 0x1000, Op: isa.LI, Rd: 4, Imm: 42},
			{PC: 0x1004, Op: isa.LD, Rd: 5, Ra: 4, Imm: 8, Addr: 0x100008, Value: 0xDEAD, Size: 8, Class: isa.LoadIntData},
			{PC: 0x1008, Op: isa.SD, Rb: 5, Ra: 4, Imm: 16, Addr: 0x100010, Value: 0xDEAD, Size: 8},
			{PC: 0x100C, Op: isa.BEQ, Ra: 5, Rb: 0, Imm: 0x1000, Taken: true, Targ: 0x1000},
			{PC: 0x1000, Op: isa.LI, Rd: 4, Imm: 42},
			{PC: 0x1004, Op: isa.FLD, Rd: 1, Ra: 4, Imm: 8, Addr: 0x100008, Value: 0x3FF0000000000000, Size: 8, Class: isa.LoadFPData},
			{PC: 0x1008, Op: isa.JAL, Rd: 31, Imm: 0x2000, Taken: true, Targ: 0x2000},
			{PC: 0x2000, Op: isa.HALT},
		},
	}
}

func TestSummarize(t *testing.T) {
	s := sampleTrace().Summarize()
	if s.Instructions != 8 {
		t.Errorf("instructions = %d, want 8", s.Instructions)
	}
	if s.Loads != 2 || s.Stores != 1 || s.Branches != 2 {
		t.Errorf("loads/stores/branches = %d/%d/%d, want 2/1/2", s.Loads, s.Stores, s.Branches)
	}
	if s.CondBranches != 1 || s.TakenRate != 1.0 {
		t.Errorf("cond = %d taken = %v, want 1, 1.0", s.CondBranches, s.TakenRate)
	}
	if s.LoadsByClass[isa.LoadIntData] != 1 || s.LoadsByClass[isa.LoadFPData] != 1 {
		t.Errorf("class breakdown wrong: %v", s.LoadsByClass)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := sampleTrace()
	got, err := readVLT1(encodeTrace(tr))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Name != tr.Name || got.Target != tr.Target {
		t.Errorf("header = %q/%q, want %q/%q", got.Name, got.Target, tr.Name, tr.Target)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Errorf("records differ:\n got %+v\nwant %+v", got.Records, tr.Records)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := readVLT1([]byte("NOPE----")); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := readVLT1([]byte("VL")); err == nil {
		t.Fatal("expected short-read error")
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	// Property: any syntactically valid trace round-trips exactly.
	rnd := rand.New(rand.NewSource(7))
	gen := func() *Trace {
		n := rnd.Intn(200)
		tr := &Trace{Name: "q", Target: "ppc", Records: make([]Record, n)}
		pc := uint64(0x1000)
		ops := []isa.Op{isa.ADD, isa.LW, isa.SD, isa.BEQ, isa.JAL, isa.FLD, isa.LI, isa.FDIV}
		for i := range tr.Records {
			op := ops[rnd.Intn(len(ops))]
			r := Record{
				PC: pc, Op: op,
				Rd: isa.Reg(rnd.Intn(32)), Ra: isa.Reg(rnd.Intn(32)), Rb: isa.Reg(rnd.Intn(32)),
				Imm: rnd.Int63n(1<<40) - (1 << 39),
			}
			if isa.IsLoad(op) || isa.IsStore(op) {
				r.Addr = rnd.Uint64() >> 8
				r.Value = rnd.Uint64()
				r.Size = uint8(isa.MemBytes(op))
				if isa.IsLoad(op) {
					r.Class = isa.LoadClass(1 + rnd.Intn(4))
				}
			}
			if isa.IsBranch(op) {
				r.Taken = rnd.Intn(2) == 0
				r.Targ = pc + uint64(rnd.Intn(4096))
			}
			tr.Records[i] = r
			pc += 4
		}
		return tr
	}
	for range 50 {
		tr := gen()
		got, err := readVLT1(encodeTrace(tr))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !reflect.DeepEqual(got.Records, tr.Records) {
			t.Fatal("random trace did not round-trip")
		}
	}
}

func TestPredStateStrings(t *testing.T) {
	want := map[PredState]string{
		PredNone: "no-pred", PredIncorrect: "incorrect",
		PredCorrect: "correct", PredConstant: "constant",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("PredState(%d) = %q, want %q", p, p.String(), s)
		}
	}
}

func TestNewAnnotationSized(t *testing.T) {
	tr := sampleTrace()
	a := NewAnnotation(tr)
	if len(a) != len(tr.Records) {
		t.Fatalf("annotation len %d, want %d", len(a), len(tr.Records))
	}
	for _, p := range a {
		if p != PredNone {
			t.Fatal("annotation must start all PredNone")
		}
	}
}

func TestRecordInstRoundTrip(t *testing.T) {
	f := func(op uint8, rd, ra, rb uint8, imm int64) bool {
		r := Record{
			Op: isa.Op(op % uint8(isa.NumOps)), Rd: isa.Reg(rd % 32),
			Ra: isa.Reg(ra % 32), Rb: isa.Reg(rb % 32), Imm: imm,
		}
		in := r.Inst()
		return in.Op == r.Op && in.Rd == r.Rd && in.Ra == r.Ra && in.Rb == r.Rb && in.Imm == r.Imm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodecPersistsResultValues(t *testing.T) {
	// Non-memory records carry result values (general value prediction);
	// the codec must round-trip them via the flagVal path.
	tr := &Trace{Name: "v", Target: "axp", Records: []Record{
		{PC: 0x1000, Op: isa.ADD, Rd: 5, Ra: 1, Rb: 2, Value: 0xCAFE},
		{PC: 0x1004, Op: isa.FADD, Rd: 2, Ra: 1, Rb: 3, Value: 0x3FF0000000000000},
		{PC: 0x1008, Op: isa.SUB, Rd: 6, Ra: 5, Rb: 5, Value: 0}, // zero omitted, still round-trips
	}}
	got, err := readVLT1(encodeTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Errorf("result values did not round-trip:\n got %+v\nwant %+v", got.Records, tr.Records)
	}
}

func TestCodecRobustAgainstGarbage(t *testing.T) {
	// Malformed inputs must produce errors, never panics or giant
	// allocations. Start from a valid encoding and corrupt it.
	valid := encodeTrace(sampleTrace())
	rnd := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		corrupt := append([]byte(nil), valid...)
		// Flip a few random bytes (keeping the magic intact half the
		// time so deeper paths get exercised).
		n := 1 + rnd.Intn(4)
		lo := 0
		if rnd.Intn(2) == 0 {
			lo = 4
		}
		for k := 0; k < n; k++ {
			pos := lo + rnd.Intn(len(corrupt)-lo)
			corrupt[pos] ^= byte(1 + rnd.Intn(255))
		}
		// Truncate sometimes.
		if rnd.Intn(3) == 0 {
			corrupt = corrupt[:rnd.Intn(len(corrupt))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("codec panicked on corrupt input: %v", r)
				}
			}()
			tr, err := readVLT1(corrupt)
			// Either an error, or a decode that at least respects
			// its own record count.
			if err == nil && tr == nil {
				t.Fatal("nil trace with nil error")
			}
		}()
	}
}
