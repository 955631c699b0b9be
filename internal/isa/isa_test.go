package isa

import "testing"

func TestEveryOpcodeHasClass(t *testing.T) {
	for op := Op(1); int(op) < NumOps; op++ {
		if ClassOf(op) == ClassNop && op != NOP {
			t.Errorf("opcode %v (%d) has no functional-unit class", op, op)
		}
	}
}

func TestEveryOpcodeHasName(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		if opNames[op] == "" {
			t.Errorf("opcode %d has no mnemonic", op)
		}
	}
	if got := Op(250).String(); got != "op(250)" {
		t.Errorf("out-of-range op name = %q", got)
	}
}

func TestMemBytes(t *testing.T) {
	cases := []struct {
		op   Op
		want int
	}{
		{LB, 1}, {LBU, 1}, {SB, 1},
		{LH, 2}, {LHU, 2}, {SH, 2},
		{LW, 4}, {LWU, 4}, {SW, 4}, {FLW, 4}, {FSW, 4},
		{LD, 8}, {SD, 8}, {FLD, 8}, {FSD, 8},
		{ADD, 0}, {BEQ, 0}, {HALT, 0},
	}
	for _, c := range cases {
		if got := MemBytes(c.op); got != c.want {
			t.Errorf("MemBytes(%v) = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestLoadStoreClassesConsistent(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		if IsLoad(op) || IsStore(op) {
			if MemBytes(op) == 0 {
				t.Errorf("memory op %v has zero width", op)
			}
		} else if MemBytes(op) != 0 {
			t.Errorf("non-memory op %v has width %d", op, MemBytes(op))
		}
	}
}

func TestSignExtends(t *testing.T) {
	for _, op := range []Op{LB, LH, LW} {
		if !SignExtends(op) {
			t.Errorf("%v should sign-extend", op)
		}
	}
	for _, op := range []Op{LBU, LHU, LWU, LD, FLW, FLD} {
		if SignExtends(op) {
			t.Errorf("%v should not sign-extend", op)
		}
	}
}

func TestBranchPredicates(t *testing.T) {
	cond := []Op{BEQ, BNE, BLT, BGE, BLTU, BGEU}
	for _, op := range cond {
		if !IsBranch(op) || !IsCondBranch(op) {
			t.Errorf("%v should be a conditional branch", op)
		}
	}
	for _, op := range []Op{JAL, JALR} {
		if !IsBranch(op) || IsCondBranch(op) {
			t.Errorf("%v should be an unconditional branch", op)
		}
	}
	if !IsIndirect(JALR) || IsIndirect(JAL) {
		t.Error("JALR must be the only indirect transfer")
	}
}

func TestWritesGPRAndFPR(t *testing.T) {
	cases := []struct {
		in      Inst
		gpr, fp bool
	}{
		{Inst{Op: ADD, Rd: 5}, true, false},
		{Inst{Op: LW, Rd: 5}, true, false},
		{Inst{Op: FLD, Rd: 5}, false, true},
		{Inst{Op: SW}, false, false},
		{Inst{Op: FSD}, false, false},
		{Inst{Op: JAL, Rd: 31}, true, false},
		{Inst{Op: JALR, Rd: 31}, true, false},
		{Inst{Op: BEQ}, false, false},
		{Inst{Op: FADD, Rd: 2}, false, true},
		{Inst{Op: FEQ, Rd: 2}, true, false},
		{Inst{Op: CVTIF, Rd: 2}, false, true},
		{Inst{Op: CVTFI, Rd: 2}, true, false},
		{Inst{Op: MOVFI, Rd: 2}, true, false},
		{Inst{Op: MOVIF, Rd: 2}, false, true},
		{Inst{Op: HALT}, false, false},
	}
	for _, c := range cases {
		if got := WritesGPR(c.in); got != c.gpr {
			t.Errorf("WritesGPR(%v) = %v, want %v", c.in.Op, got, c.gpr)
		}
		if got := WritesFPR(c.in); got != c.fp {
			t.Errorf("WritesFPR(%v) = %v, want %v", c.in.Op, got, c.fp)
		}
	}
}

func TestDest(t *testing.T) {
	if ref, ok := Dest(Inst{Op: ADD, Rd: 7}); !ok || ref.FP || ref.Reg != 7 {
		t.Errorf("Dest(add r7) = %v, %v", ref, ok)
	}
	if _, ok := Dest(Inst{Op: ADD, Rd: R0}); ok {
		t.Error("write to R0 should report no destination")
	}
	if ref, ok := Dest(Inst{Op: FLD, Rd: 0}); !ok || !ref.FP {
		t.Errorf("Dest(fld f0) = %v, %v; FPR f0 is a real register", ref, ok)
	}
}

func TestSources(t *testing.T) {
	cases := []struct {
		in   Inst
		want []RegRef
	}{
		{Inst{Op: ADD, Ra: 1, Rb: 2}, []RegRef{{Reg: 1}, {Reg: 2}}},
		{Inst{Op: ADDI, Ra: 3}, []RegRef{{Reg: 3}}},
		{Inst{Op: LW, Ra: 4}, []RegRef{{Reg: 4}}},
		{Inst{Op: SW, Ra: 4, Rb: 5}, []RegRef{{Reg: 4}, {Reg: 5}}},
		{Inst{Op: FSD, Ra: 4, Rb: 5}, []RegRef{{Reg: 4}, {Reg: 5, FP: true}}},
		{Inst{Op: FADD, Ra: 1, Rb: 2}, []RegRef{{Reg: 1, FP: true}, {Reg: 2, FP: true}}},
		{Inst{Op: JAL}, nil},
		{Inst{Op: JALR, Ra: 31}, []RegRef{{Reg: 31}}},
		{Inst{Op: LI}, nil},
	}
	for _, c := range cases {
		got := Sources(c.in, nil)
		if len(got) != len(c.want) {
			t.Errorf("Sources(%v) = %v, want %v", c.in.Op, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Sources(%v)[%d] = %v, want %v", c.in.Op, i, got[i], c.want[i])
			}
		}
	}
}

func TestDisasmSmoke(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: 1, Ra: 2, Rb: 3}, "add r1, r2, r3"},
		{Inst{Op: ADDI, Rd: 1, Ra: 2, Imm: -4}, "addi r1, r2, -4"},
		{Inst{Op: LW, Rd: 1, Ra: 2, Imm: 8, Class: LoadIntData}, "lw r1, 8(r2) ; int-data"},
		{Inst{Op: SW, Rb: 1, Ra: 2, Imm: 8}, "sw r1, 8(r2)"},
		{Inst{Op: BEQ, Ra: 1, Rb: 2, Imm: 0x1000}, "beq r1, r2, 0x1000"},
		{Inst{Op: JAL, Rd: 31, Imm: 0x2000}, "jal r31, 0x2000"},
		{Inst{Op: HALT}, "halt"},
		{Inst{Op: LI, Rd: 3, Imm: 42}, "li r3, 42"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("disasm = %q, want %q", got, c.want)
		}
	}
}

func TestLoadClassString(t *testing.T) {
	want := map[LoadClass]string{
		LoadNone: "none", LoadFPData: "fp-data", LoadIntData: "int-data",
		LoadInstAddr: "inst-addr", LoadDataAddr: "data-addr",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("LoadClass(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error("OpByName must reject unknown mnemonics")
	}
}

func TestDisasmAllForms(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OUT, Ra: 4}, "out r4"},
		{Inst{Op: NOP}, "nop"},
		{Inst{Op: JALR, Rd: 31, Ra: 5, Imm: 8}, "jalr r31, 8(r5)"},
		{Inst{Op: FNEG, Rd: 1, Ra: 2}, "fneg r1, r2"},
		{Inst{Op: CVTIF, Rd: 1, Ra: 2}, "cvtif r1, r2"},
		{Inst{Op: FSQRT, Rd: 1, Ra: 2}, "fsqrt r1, r2"},
		{Inst{Op: LD, Rd: 1, Ra: 2, Imm: -8}, "ld r1, -8(r2)"},
		{Inst{Op: FSD, Rb: 3, Ra: 2, Imm: 16}, "fsd r3, 16(r2)"},
		{Inst{Op: SLTI, Rd: 1, Ra: 2, Imm: 7}, "slti r1, r2, 7"},
		{Inst{Op: FDIV, Rd: 1, Ra: 2, Rb: 3}, "fdiv r1, r2, r3"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("disasm = %q, want %q", got, c.want)
		}
	}
}

func TestClassStrings(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if s := c.String(); s == "" || s[0] == 'C' {
			t.Errorf("Class(%d).String() = %q", c, s)
		}
	}
	if Class(99).String() != "Class(99)" {
		t.Error("out-of-range class string")
	}
	if LoadClass(99).String() != "LoadClass(99)" {
		t.Error("out-of-range load class string")
	}
	if ClassOf(Op(200)) != ClassNop {
		t.Error("out-of-range opcode must classify as nop")
	}
}

// TestSlots pins what the timing models' per-row tables rely on: Slots
// gives every register Sources reads, in order, in at most two slots, and
// the register Dest writes, never in slot 0; Slot puts the two register
// files side by side in NumSlots.
func TestSlots(t *testing.T) {
	for op := Op(0); int(op) < NumOps+2; op++ {
		for _, r := range []Reg{0, 1, NumRegs - 1} {
			in := Inst{Op: op, Rd: r, Ra: r, Rb: (r + 1) % NumRegs}
			src, dst := Slots(in)
			refs := Sources(in, nil)
			if len(refs) > len(src) {
				t.Fatalf("op %d reads %d registers, Slots keeps %d", op, len(refs), len(src))
			}
			for k := range src {
				want := uint8(0)
				if k < len(refs) {
					want = refs[k].Slot()
				}
				if src[k] != want {
					t.Errorf("op %d r %d: source slot %d = %d, want %d", op, r, k, src[k], want)
				}
			}
			want := uint8(0)
			if ref, ok := Dest(in); ok {
				if want = ref.Slot(); want == 0 {
					t.Errorf("op %d rd %d: Dest names slot 0", op, r)
				}
			}
			if dst != want {
				t.Errorf("op %d rd %d: dest slot %d, want %d", op, r, dst, want)
			}
		}
	}
	for r := Reg(0); r < NumRegs; r++ {
		g, f := RegRef{Reg: r}.Slot(), RegRef{Reg: r, FP: true}.Slot()
		if int(g) != int(r) || int(f) != NumRegs+int(r) || int(f) >= NumSlots {
			t.Errorf("reg %d: slots %d and %d", r, g, f)
		}
	}
}

// TestLatenciesOf checks opcodes read their own row of a latency table:
// multiply and divide apart, and NOP and the system ops on simple integer.
func TestLatenciesOf(t *testing.T) {
	var l Latencies
	rows := []*Latency{&l.SimpleInt, &l.Mul, &l.Div, &l.Load, &l.Store, &l.SimpleFP, &l.ComplexFP, &l.Branch}
	for i, r := range rows {
		*r = Latency{Issue: i + 1, Result: 10 * (i + 1)}
	}
	for op, want := range map[Op]Latency{
		NOP: l.SimpleInt, ADD: l.SimpleInt, LI: l.SimpleInt, OUT: l.SimpleInt, HALT: l.SimpleInt,
		MUL: l.Mul, DIV: l.Div, REM: l.Div,
		LB: l.Load, FLD: l.Load, SB: l.Store, FSD: l.Store,
		FADD: l.SimpleFP, FEQ: l.SimpleFP, MOVFI: l.SimpleFP, FDIV: l.ComplexFP, FSQRT: l.ComplexFP,
		BEQ: l.Branch, JAL: l.Branch, JALR: l.Branch,
	} {
		if got := l.Of(op); got != want || l.Result(op) != want.Result {
			t.Errorf("%v: row %+v, result %d; want %+v", op, got, l.Result(op), want)
		}
	}
}
