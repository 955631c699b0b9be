package isa

// RegRef identifies one register operand of an instruction, including which
// file it lives in. Timing models use these to track data dependencies.
type RegRef struct {
	Reg Reg
	FP  bool
}

// Sources appends the registers read by i to dst and returns the extended
// slice. Reads of GPR R0 are included (they are architecturally always
// ready, and timing models treat them as such).
func Sources(i Inst, dst []RegRef) []RegRef {
	gpr := func(r Reg) { dst = append(dst, RegRef{Reg: r}) }
	fpr := func(r Reg) { dst = append(dst, RegRef{Reg: r, FP: true}) }
	switch i.Op {
	case NOP, LI, JAL, HALT:
		// No register sources.
	case ADD, SUB, AND, OR, XOR, SHL, SHR, SRA, SLT, SLTU, SEQ, SNE, MUL, DIV, REM:
		gpr(i.Ra)
		gpr(i.Rb)
	case ADDI, ANDI, ORI, XORI, SHLI, SHRI, SRAI, SLTI:
		gpr(i.Ra)
	case LB, LBU, LH, LHU, LW, LWU, LD, FLW, FLD:
		gpr(i.Ra) // base address
	case SB, SH, SW, SD:
		gpr(i.Ra) // base address
		gpr(i.Rb) // stored value
	case FSW, FSD:
		gpr(i.Ra)
		fpr(i.Rb)
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		gpr(i.Ra)
		gpr(i.Rb)
	case JALR:
		gpr(i.Ra)
	case FADD, FSUB, FMUL, FDIV:
		fpr(i.Ra)
		fpr(i.Rb)
	case FNEG, FABS, FMOV, FSQRT:
		fpr(i.Ra)
	case FEQ, FLT, FLE:
		fpr(i.Ra)
		fpr(i.Rb)
	case CVTIF, MOVIF:
		gpr(i.Ra)
	case CVTFI, MOVFI:
		fpr(i.Ra)
	case OUT:
		gpr(i.Ra)
	}
	return dst
}

// Dest reports the destination register of i, if any.
func Dest(i Inst) (ref RegRef, ok bool) {
	if WritesFPR(i) {
		return RegRef{Reg: i.Rd, FP: true}, true
	}
	if WritesGPR(i) {
		return RegRef{Reg: i.Rd}, i.Rd != R0
	}
	return RegRef{}, false
}

// NumSlots is the size of a scoreboard that holds both register files,
// indexed by RegRef.Slot.
const NumSlots = 2 * NumRegs

// Slot is r's index in a scoreboard of NumSlots entries: the GPRs first,
// then the FPRs.
func (r RegRef) Slot() uint8 {
	if r.FP {
		return NumRegs + uint8(r.Reg)
	}
	return uint8(r.Reg)
}

// Slots returns the scoreboard slots i reads, in Sources order, and the
// slot it writes (Dest). Slot 0, GPR R0, stands for "none" in both: Dest
// never names it, so a scoreboard whose slot 0 is never written reads it,
// and an absent source, as always ready.
func Slots(i Inst) (src [2]uint8, dst uint8) {
	var refs [2]RegRef
	for k, ref := range Sources(i, refs[:0]) {
		src[k] = ref.Slot()
	}
	if ref, ok := Dest(i); ok {
		dst = ref.Slot()
	}
	return src, dst
}
