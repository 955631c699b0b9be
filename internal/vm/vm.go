// Package vm is the functional VLR simulator. It executes a prog.Program to
// completion and emits the dynamic instruction trace consumed by the value
// locality analyses, the LVP Unit model and the timing models — the role
// played by the TRIP6000 and ATOM tracing tools in the paper (§5).
package vm

import (
	"errors"
	"fmt"
	"io"
	"math"

	"lvp/internal/isa"
	"lvp/internal/prog"
	"lvp/internal/trace"
)

// ErrStepLimit reports that execution exceeded the configured step budget,
// which almost always means a runaway loop in a benchmark program.
var ErrStepLimit = errors.New("vm: step limit exceeded")

// DefaultMaxSteps bounds execution when the caller does not.
const DefaultMaxSteps = 50_000_000

// Result is what a completed run produces besides the trace.
type Result struct {
	Steps  int      // retired instruction count
	Output []uint64 // values emitted by OUT instructions (self-check channel)
	Pages  int      // memory footprint in 4 KiB pages
}

// Run executes p to completion and returns its full trace, compacted as it
// runs (trace.Collect), and its result. A run longer than a trace can hold
// (trace.MaxRecords) fails with ErrStepLimit.
func Run(p *prog.Program, maxSteps int) (*trace.Trace, *Result, error) {
	src := NewSource(p, min(maxSteps, trace.MaxRecords))
	t, err := trace.Collect(p.Name, p.Target.Name, src)
	if err != nil {
		return nil, nil, err
	}
	return t, src.Result(), nil
}

// Exec executes p without retaining a trace (functional testing).
func Exec(p *prog.Program, maxSteps int) (*Result, error) {
	src := NewSource(p, maxSteps)
	buf := make([]trace.Record, 256)
	for {
		if _, err := src.NextBatch(buf); err == io.EOF {
			return src.Result(), nil
		} else if err != nil {
			return nil, err
		}
	}
}

// Source is the pull-based form of the functional simulator: each NextBatch
// call executes instructions and yields their retired records, so the record
// stream can flow straight into the streaming annotation and timing layers
// without the program's full trace ever being materialized. NextBatch
// allocates nothing on the hot path.
type Source struct {
	p        *prog.Program
	m        *Memory
	gpr      [isa.NumRegs]uint64
	fpr      [isa.NumRegs]float64
	pc       uint64
	steps    int
	maxSteps int
	output   []uint64
	halted   bool
}

// NewSource returns a Source at p's entry point; maxSteps <= 0 selects
// DefaultMaxSteps.
func NewSource(p *prog.Program, maxSteps int) *Source {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	m := NewMemory()
	m.LoadImage(p.Data)
	return &Source{p: p, m: m, pc: p.Entry, maxSteps: maxSteps}
}

// Result returns the run result; call it after NextBatch has returned
// io.EOF.
func (s *Source) Result() *Result {
	return &Result{Steps: s.steps, Output: s.output, Pages: s.m.Pages()}
}

// NextBatch executes up to len(buf) instructions, filling buf with their
// records in retirement order (see trace.BatchSource). It returns the number
// of records produced; the records are the caller's to keep. After the HALT
// record has been delivered it returns (0, io.EOF). An execution error may
// follow n > 0 already-valid records.
func (s *Source) NextBatch(buf []trace.Record) (int, error) {
	n := 0
	for n < len(buf) {
		if s.halted {
			if n > 0 {
				return n, nil
			}
			return 0, io.EOF
		}
		if err := s.step(&buf[n]); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// step executes one instruction, writing its retired record into rec.
func (s *Source) step(rec *trace.Record) error {
	p, m, pc := s.p, s.m, s.pc
	gpr, fpr := &s.gpr, &s.fpr
	if s.steps >= s.maxSteps {
		return fmt.Errorf("%w after %d instructions at pc=%#x", ErrStepLimit, s.steps, pc)
	}
	idx, ok := p.PCToIndex(pc)
	if !ok {
		return fmt.Errorf("vm: pc %#x outside program (step %d)", pc, s.steps)
	}
	in := p.Code[idx]
	*rec = trace.Record{
		PC: pc, Op: in.Op, Rd: in.Rd, Ra: in.Ra, Rb: in.Rb,
		Imm: in.Imm, Class: in.Class,
	}
	nextPC := pc + isa.InstBytes
	halt := false

	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		gpr[in.Rd] = gpr[in.Ra] + gpr[in.Rb]
	case isa.ADDI:
		gpr[in.Rd] = gpr[in.Ra] + uint64(in.Imm)
	case isa.SUB:
		gpr[in.Rd] = gpr[in.Ra] - gpr[in.Rb]
	case isa.AND:
		gpr[in.Rd] = gpr[in.Ra] & gpr[in.Rb]
	case isa.ANDI:
		gpr[in.Rd] = gpr[in.Ra] & uint64(in.Imm)
	case isa.OR:
		gpr[in.Rd] = gpr[in.Ra] | gpr[in.Rb]
	case isa.ORI:
		gpr[in.Rd] = gpr[in.Ra] | uint64(in.Imm)
	case isa.XOR:
		gpr[in.Rd] = gpr[in.Ra] ^ gpr[in.Rb]
	case isa.XORI:
		gpr[in.Rd] = gpr[in.Ra] ^ uint64(in.Imm)
	case isa.SHL:
		gpr[in.Rd] = gpr[in.Ra] << (gpr[in.Rb] & 63)
	case isa.SHLI:
		gpr[in.Rd] = gpr[in.Ra] << (uint64(in.Imm) & 63)
	case isa.SHR:
		gpr[in.Rd] = gpr[in.Ra] >> (gpr[in.Rb] & 63)
	case isa.SHRI:
		gpr[in.Rd] = gpr[in.Ra] >> (uint64(in.Imm) & 63)
	case isa.SRA:
		gpr[in.Rd] = uint64(int64(gpr[in.Ra]) >> (gpr[in.Rb] & 63))
	case isa.SRAI:
		gpr[in.Rd] = uint64(int64(gpr[in.Ra]) >> (uint64(in.Imm) & 63))
	case isa.SLT:
		gpr[in.Rd] = b2u(int64(gpr[in.Ra]) < int64(gpr[in.Rb]))
	case isa.SLTI:
		gpr[in.Rd] = b2u(int64(gpr[in.Ra]) < in.Imm)
	case isa.SLTU:
		gpr[in.Rd] = b2u(gpr[in.Ra] < gpr[in.Rb])
	case isa.SEQ:
		gpr[in.Rd] = b2u(gpr[in.Ra] == gpr[in.Rb])
	case isa.SNE:
		gpr[in.Rd] = b2u(gpr[in.Ra] != gpr[in.Rb])
	case isa.LI:
		gpr[in.Rd] = uint64(in.Imm)
	case isa.MUL:
		gpr[in.Rd] = gpr[in.Ra] * gpr[in.Rb]
	case isa.DIV:
		gpr[in.Rd] = sdiv(int64(gpr[in.Ra]), int64(gpr[in.Rb]))
	case isa.REM:
		gpr[in.Rd] = srem(int64(gpr[in.Ra]), int64(gpr[in.Rb]))

	case isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW, isa.LWU, isa.LD:
		size := isa.MemBytes(in.Op)
		addr := gpr[in.Ra] + uint64(in.Imm)
		raw := m.Read(addr, size)
		v := raw
		if isa.SignExtends(in.Op) {
			v = signExtend(raw, size)
		}
		gpr[in.Rd] = v
		rec.Addr, rec.Value, rec.Size = addr, v, uint8(size)
	case isa.FLW:
		addr := gpr[in.Ra] + uint64(in.Imm)
		raw := m.Read(addr, 4)
		f := float64(math.Float32frombits(uint32(raw)))
		fpr[in.Rd] = f
		rec.Addr, rec.Value, rec.Size = addr, math.Float64bits(f), 4
	case isa.FLD:
		addr := gpr[in.Ra] + uint64(in.Imm)
		raw := m.Read(addr, 8)
		fpr[in.Rd] = math.Float64frombits(raw)
		rec.Addr, rec.Value, rec.Size = addr, raw, 8

	case isa.SB, isa.SH, isa.SW, isa.SD:
		size := isa.MemBytes(in.Op)
		addr := gpr[in.Ra] + uint64(in.Imm)
		v := gpr[in.Rb]
		m.Write(addr, size, v)
		rec.Addr, rec.Value, rec.Size = addr, v&sizeMask(size), uint8(size)
	case isa.FSW:
		addr := gpr[in.Ra] + uint64(in.Imm)
		v := uint64(math.Float32bits(float32(fpr[in.Rb])))
		m.Write(addr, 4, v)
		rec.Addr, rec.Value, rec.Size = addr, v, 4
	case isa.FSD:
		addr := gpr[in.Ra] + uint64(in.Imm)
		v := math.Float64bits(fpr[in.Rb])
		m.Write(addr, 8, v)
		rec.Addr, rec.Value, rec.Size = addr, v, 8

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		taken := false
		a, b := gpr[in.Ra], gpr[in.Rb]
		switch in.Op {
		case isa.BEQ:
			taken = a == b
		case isa.BNE:
			taken = a != b
		case isa.BLT:
			taken = int64(a) < int64(b)
		case isa.BGE:
			taken = int64(a) >= int64(b)
		case isa.BLTU:
			taken = a < b
		case isa.BGEU:
			taken = a >= b
		}
		if taken {
			nextPC = uint64(in.Imm)
		}
		rec.Taken, rec.Targ = taken, nextPC
	case isa.JAL:
		if in.Rd != isa.R0 {
			gpr[in.Rd] = pc + isa.InstBytes
		}
		nextPC = uint64(in.Imm)
		rec.Taken, rec.Targ = true, nextPC
	case isa.JALR:
		target := gpr[in.Ra] + uint64(in.Imm)
		if in.Rd != isa.R0 {
			gpr[in.Rd] = pc + isa.InstBytes
		}
		nextPC = target
		rec.Taken, rec.Targ = true, nextPC

	case isa.FADD:
		fpr[in.Rd] = fpr[in.Ra] + fpr[in.Rb]
	case isa.FSUB:
		fpr[in.Rd] = fpr[in.Ra] - fpr[in.Rb]
	case isa.FMUL:
		fpr[in.Rd] = fpr[in.Ra] * fpr[in.Rb]
	case isa.FDIV:
		fpr[in.Rd] = fpr[in.Ra] / fpr[in.Rb]
	case isa.FSQRT:
		fpr[in.Rd] = math.Sqrt(fpr[in.Ra])
	case isa.FNEG:
		fpr[in.Rd] = -fpr[in.Ra]
	case isa.FABS:
		fpr[in.Rd] = math.Abs(fpr[in.Ra])
	case isa.FMOV:
		fpr[in.Rd] = fpr[in.Ra]
	case isa.FEQ:
		gpr[in.Rd] = b2u(fpr[in.Ra] == fpr[in.Rb])
	case isa.FLT:
		gpr[in.Rd] = b2u(fpr[in.Ra] < fpr[in.Rb])
	case isa.FLE:
		gpr[in.Rd] = b2u(fpr[in.Ra] <= fpr[in.Rb])
	case isa.CVTIF:
		fpr[in.Rd] = float64(int64(gpr[in.Ra]))
	case isa.CVTFI:
		fpr_ := fpr[in.Ra]
		switch {
		case math.IsNaN(fpr_):
			gpr[in.Rd] = 0
		case fpr_ >= math.MaxInt64:
			gpr[in.Rd] = uint64(math.MaxInt64)
		case fpr_ <= math.MinInt64:
			gpr[in.Rd] = 1 << 63 // bit pattern of MinInt64
		default:
			gpr[in.Rd] = uint64(int64(fpr_))
		}
	case isa.MOVIF:
		fpr[in.Rd] = math.Float64frombits(gpr[in.Ra])
	case isa.MOVFI:
		gpr[in.Rd] = math.Float64bits(fpr[in.Ra])

	case isa.OUT:
		s.output = append(s.output, gpr[in.Ra])
	case isa.HALT:
		halt = true
	default:
		return fmt.Errorf("vm: unimplemented opcode %v at pc=%#x", in.Op, pc)
	}

	gpr[isa.R0] = 0 // R0 is hardwired zero
	// Record the produced register value for every writer, not just
	// loads: §7 of the paper proposes predicting values "generated
	// by instructions other than loads", and the general-value-
	// locality study needs the full result stream.
	if !isa.IsLoad(in.Op) && !isa.IsStore(in.Op) {
		if isa.WritesFPR(in) {
			rec.Value = math.Float64bits(fpr[in.Rd])
		} else if isa.WritesGPR(in) && in.Rd != isa.R0 {
			rec.Value = gpr[in.Rd]
		}
	}
	s.steps++
	if halt {
		s.halted = true
	} else {
		s.pc = nextPC
	}
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sdiv(a, b int64) uint64 {
	if b == 0 {
		return 0
	}
	if a == math.MinInt64 && b == -1 {
		return uint64(a)
	}
	return uint64(a / b)
}

func srem(a, b int64) uint64 {
	if b == 0 {
		return 0
	}
	if a == math.MinInt64 && b == -1 {
		return 0
	}
	return uint64(a % b)
}

func signExtend(v uint64, size int) uint64 {
	shift := 64 - 8*size
	return uint64(int64(v<<shift) >> shift)
}

func sizeMask(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return (1 << (8 * size)) - 1
}
