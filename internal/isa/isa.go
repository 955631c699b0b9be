// Package isa defines the VLR (Value-Locality RISC) instruction set used by
// the whole reproduction: the functional VM executes it, the benchmark suite
// is written in it, and the timing models classify its instructions onto
// functional units.
//
// VLR is a load/store RISC in the spirit of the PowerPC 620 and Alpha 21164
// studied by the paper: 32 general-purpose registers, 32 floating-point
// registers, byte-addressed memory, fixed 4-byte instruction "slots" (the PC
// advances by 4 per instruction), and a conventional split between simple
// integer, complex integer, simple FP, complex FP, load/store, and branch
// instruction classes (paper Table 5).
//
// One deliberate extension: every load instruction carries a LoadClass tag
// assigned by the code generator. The paper's Figure 2 classifies loads by
// the kind of datum they fetch (floating-point data, integer data,
// instruction addresses, data addresses); in our framework the program
// builder knows exactly why each load was emitted, so the tag is static and
// exact.
package isa

import "fmt"

// Reg names a general-purpose or floating-point register. Whether a Reg
// refers to the GPR or FPR file is determined by the opcode that uses it.
type Reg uint8

// NumRegs is the size of each register file.
const NumRegs = 32

// R0 is hardwired to zero in the GPR file.
const R0 Reg = 0

// InstBytes is the architectural size of one instruction; the PC advances by
// this amount after every non-branching instruction.
const InstBytes = 4

// Op enumerates VLR opcodes.
type Op uint8

// Opcodes. The groups mirror the functional-unit classes of paper Table 5.
const (
	NOP Op = iota

	// Simple integer (SCFX). Three-register forms use Rd, Ra, Rb;
	// immediate forms use Rd, Ra, Imm.
	ADD
	ADDI
	SUB
	AND
	ANDI
	OR
	ORI
	XOR
	XORI
	SHL
	SHLI
	SHR // logical right shift
	SHRI
	SRA // arithmetic right shift
	SRAI
	SLT  // Rd = (Ra < Rb) signed
	SLTI // Rd = (Ra < Imm) signed
	SLTU // Rd = (Ra < Rb) unsigned
	SEQ  // Rd = (Ra == Rb)
	SNE  // Rd = (Ra != Rb)
	LI   // Rd = Imm (full-width immediate; see package comment in prog)

	// Complex integer (MCFX).
	MUL
	DIV // signed divide; divide-by-zero yields 0 (no traps in VLR)
	REM // signed remainder; modulo-by-zero yields 0

	// Loads. Rd = mem[Ra+Imm]; sign/zero extension per opcode. FLW/FLD
	// target the FPR file.
	LB
	LBU
	LH
	LHU
	LW
	LWU
	LD
	FLW
	FLD

	// Stores. mem[Ra+Imm] = Rb (low-order bytes). FSW/FSD read the FPR
	// file.
	SB
	SH
	SW
	SD
	FSW
	FSD

	// Branches. Conditional branches compare Ra and Rb (GPRs) and
	// transfer to Imm (an absolute instruction address, resolved by the
	// program builder).
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU
	JAL  // Rd = return address; jump to Imm
	JALR // Rd = return address; jump to Ra + Imm (indirect: returns, virtual calls, switch tables)

	// Simple FP (FPU, pipelined).
	FADD
	FSUB
	FMUL
	FNEG
	FABS
	FMOV
	FEQ   // Rd (GPR) = (Fa == Fb)
	FLT   // Rd (GPR) = (Fa < Fb)
	FLE   // Rd (GPR) = (Fa <= Fb)
	CVTIF // Fd = float64(Ra as int64)
	CVTFI // Rd = int64(Fa) (truncating)
	MOVIF // Fd = raw bits of Ra
	MOVFI // Rd = raw bits of Fa

	// Complex FP (FPU, long latency).
	FDIV
	FSQRT

	// System.
	OUT  // append GPR Ra to the VM's output stream (self-check channel)
	HALT // stop execution

	numOps // sentinel; must be last
)

// NumOps reports the number of defined opcodes (useful for exhaustive
// table-driven tests).
const NumOps = int(numOps)

// LoadClass tags a static load with the kind of datum it fetches, following
// the taxonomy of paper Figure 2.
type LoadClass uint8

const (
	// LoadNone marks non-load instructions.
	LoadNone LoadClass = iota
	// LoadFPData is a floating-point datum.
	LoadFPData
	// LoadIntData is a non-FP, non-address datum.
	LoadIntData
	// LoadInstAddr is an instruction address (function pointer, switch
	// table entry, saved link register).
	LoadInstAddr
	// LoadDataAddr is a data address (pointer, GOT/TOC entry, spilled
	// pointer).
	LoadDataAddr

	// NumLoadClasses counts the classes above, including LoadNone.
	NumLoadClasses
)

func (c LoadClass) String() string {
	switch c {
	case LoadNone:
		return "none"
	case LoadFPData:
		return "fp-data"
	case LoadIntData:
		return "int-data"
	case LoadInstAddr:
		return "inst-addr"
	case LoadDataAddr:
		return "data-addr"
	}
	return fmt.Sprintf("LoadClass(%d)", uint8(c))
}

// Inst is one VLR instruction. Imm holds immediates, branch targets
// (absolute instruction addresses) and full-width LI constants.
type Inst struct {
	Op    Op
	Rd    Reg
	Ra    Reg
	Rb    Reg
	Imm   int64
	Class LoadClass // static load-class tag; LoadNone unless Op is a load
}

// Class enumerates the functional-unit classes of paper Table 5.
type Class uint8

const (
	ClassNop Class = iota
	ClassSimpleInt
	ClassComplexInt
	ClassLoad
	ClassStore
	ClassSimpleFP
	ClassComplexFP
	ClassBranch
	ClassSys

	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassSimpleInt:
		return "simple-int"
	case ClassComplexInt:
		return "complex-int"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassSimpleFP:
		return "simple-fp"
	case ClassComplexFP:
		return "complex-fp"
	case ClassBranch:
		return "branch"
	case ClassSys:
		return "sys"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

var opClass = [numOps]Class{
	NOP:   ClassNop,
	ADD:   ClassSimpleInt,
	ADDI:  ClassSimpleInt,
	SUB:   ClassSimpleInt,
	AND:   ClassSimpleInt,
	ANDI:  ClassSimpleInt,
	OR:    ClassSimpleInt,
	ORI:   ClassSimpleInt,
	XOR:   ClassSimpleInt,
	XORI:  ClassSimpleInt,
	SHL:   ClassSimpleInt,
	SHLI:  ClassSimpleInt,
	SHR:   ClassSimpleInt,
	SHRI:  ClassSimpleInt,
	SRA:   ClassSimpleInt,
	SRAI:  ClassSimpleInt,
	SLT:   ClassSimpleInt,
	SLTI:  ClassSimpleInt,
	SLTU:  ClassSimpleInt,
	SEQ:   ClassSimpleInt,
	SNE:   ClassSimpleInt,
	LI:    ClassSimpleInt,
	MUL:   ClassComplexInt,
	DIV:   ClassComplexInt,
	REM:   ClassComplexInt,
	LB:    ClassLoad,
	LBU:   ClassLoad,
	LH:    ClassLoad,
	LHU:   ClassLoad,
	LW:    ClassLoad,
	LWU:   ClassLoad,
	LD:    ClassLoad,
	FLW:   ClassLoad,
	FLD:   ClassLoad,
	SB:    ClassStore,
	SH:    ClassStore,
	SW:    ClassStore,
	SD:    ClassStore,
	FSW:   ClassStore,
	FSD:   ClassStore,
	BEQ:   ClassBranch,
	BNE:   ClassBranch,
	BLT:   ClassBranch,
	BGE:   ClassBranch,
	BLTU:  ClassBranch,
	BGEU:  ClassBranch,
	JAL:   ClassBranch,
	JALR:  ClassBranch,
	FADD:  ClassSimpleFP,
	FSUB:  ClassSimpleFP,
	FMUL:  ClassSimpleFP,
	FNEG:  ClassSimpleFP,
	FABS:  ClassSimpleFP,
	FMOV:  ClassSimpleFP,
	FEQ:   ClassSimpleFP,
	FLT:   ClassSimpleFP,
	FLE:   ClassSimpleFP,
	CVTIF: ClassSimpleFP,
	CVTFI: ClassSimpleFP,
	MOVIF: ClassSimpleFP,
	MOVFI: ClassSimpleFP,
	FDIV:  ClassComplexFP,
	FSQRT: ClassComplexFP,
	OUT:   ClassSys,
	HALT:  ClassSys,
}

// ClassOf reports the functional-unit class of op.
func ClassOf(op Op) Class {
	if int(op) >= NumOps {
		return ClassNop
	}
	return opClass[op]
}

// IsLoad reports whether op reads memory.
func IsLoad(op Op) bool { return ClassOf(op) == ClassLoad }

// IsStore reports whether op writes memory.
func IsStore(op Op) bool { return ClassOf(op) == ClassStore }

// IsBranch reports whether op may redirect the PC.
func IsBranch(op Op) bool { return ClassOf(op) == ClassBranch }

// IsCondBranch reports whether op is a conditional branch.
func IsCondBranch(op Op) bool {
	switch op {
	case BEQ, BNE, BLT, BGE, BLTU, BGEU:
		return true
	}
	return false
}

// IsIndirect reports whether op transfers control through a register.
func IsIndirect(op Op) bool { return op == JALR }

// IsFPLoad reports whether op loads into the FPR file.
func IsFPLoad(op Op) bool { return op == FLW || op == FLD }

// MemBytes reports the access width in bytes of a load or store opcode, and
// zero for anything else.
func MemBytes(op Op) int {
	switch op {
	case LB, LBU, SB:
		return 1
	case LH, LHU, SH:
		return 2
	case LW, LWU, SW, FLW, FSW:
		return 4
	case LD, SD, FLD, FSD:
		return 8
	}
	return 0
}

// SignExtends reports whether a load opcode sign-extends the loaded value.
func SignExtends(op Op) bool {
	switch op {
	case LB, LH, LW:
		return true
	}
	return false
}

// WritesGPR reports whether the instruction writes a GPR result (Rd in the
// GPR file). Writes to R0 are architecturally discarded but still "write" in
// the dataflow sense until the VM squashes them.
func WritesGPR(i Inst) bool {
	switch ClassOf(i.Op) {
	case ClassSimpleInt, ClassComplexInt:
		return true
	case ClassLoad:
		return !IsFPLoad(i.Op)
	case ClassBranch:
		return i.Op == JAL || i.Op == JALR
	case ClassSimpleFP:
		switch i.Op {
		case FEQ, FLT, FLE, CVTFI, MOVFI:
			return true
		}
	}
	return false
}

// WritesFPR reports whether the instruction writes an FPR result.
func WritesFPR(i Inst) bool {
	switch i.Op {
	case FLW, FLD, FADD, FSUB, FMUL, FNEG, FABS, FMOV, CVTIF, MOVIF, FDIV, FSQRT:
		return true
	}
	return false
}
