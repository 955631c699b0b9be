package vm

import (
	"errors"
	"testing"

	"lvp/internal/isa"
	"lvp/internal/prog"
	"lvp/internal/trace"
)

// buildAndRun assembles a small main body and runs it.
func buildAndRun(t *testing.T, target prog.Target, body func(b *prog.Builder)) (*trace.Trace, *Result) {
	t.Helper()
	b := prog.New("test", target)
	b.Label("main")
	body(b)
	b.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tr, res, err := Run(p, 1_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return tr, res
}

func TestArithmetic(t *testing.T) {
	_, res := buildAndRun(t, prog.AXP, func(b *prog.Builder) {
		b.Li(prog.T0, 21)
		b.Li(prog.T1, 2)
		b.Op3(isa.MUL, prog.T2, prog.T0, prog.T1)
		b.Out(prog.T2) // 42
		b.OpI(isa.ADDI, prog.T3, prog.T2, -2)
		b.Op3(isa.DIV, prog.T4, prog.T3, prog.T1)
		b.Out(prog.T4) // 20
		b.Li(prog.T5, -7)
		b.Op3(isa.REM, prog.T6, prog.T5, prog.T1)
		b.Out(prog.T6) // -1
		b.Op3(isa.DIV, prog.T7, prog.T0, prog.Zero)
		b.Out(prog.T7) // div by zero -> 0
	})
	want := []uint64{42, 20, ^uint64(0), 0}
	if len(res.Output) != len(want) {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Errorf("output[%d] = %d, want %d", i, int64(res.Output[i]), int64(want[i]))
		}
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	_, res := buildAndRun(t, prog.AXP, func(b *prog.Builder) {
		buf := b.Zeros("buf", 64)
		b.Li(prog.T0, int64(buf))
		b.Li(prog.T1, -2) // 0xFFFF...FE
		b.Store(isa.SB, prog.T1, prog.T0, 0)
		b.Load(isa.LBU, prog.T2, prog.T0, 0, isa.LoadIntData)
		b.Out(prog.T2) // 0xFE = 254
		b.Load(isa.LB, prog.T3, prog.T0, 0, isa.LoadIntData)
		b.Out(prog.T3) // -2 sign-extended
		b.Store(isa.SD, prog.T1, prog.T0, 8)
		b.Load(isa.LW, prog.T4, prog.T0, 8, isa.LoadIntData)
		b.Out(prog.T4) // -2 (low 32 bits sign-extended)
		b.Load(isa.LWU, prog.T5, prog.T0, 8, isa.LoadIntData)
		b.Out(prog.T5) // 0xFFFFFFFE
	})
	want := []uint64{254, ^uint64(1), ^uint64(1), 0xFFFFFFFE}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Errorf("output[%d] = %#x, want %#x", i, res.Output[i], want[i])
		}
	}
}

func TestBranchesAndLoop(t *testing.T) {
	_, res := buildAndRun(t, prog.AXP, func(b *prog.Builder) {
		// sum 1..10 = 55
		b.Li(prog.T0, 0)  // sum
		b.Li(prog.T1, 1)  // i
		b.Li(prog.T2, 10) // limit
		loop := b.NewLabel("loop")
		done := b.NewLabel("done")
		b.Label(loop)
		b.Branch(isa.BLT, prog.T2, prog.T1, done) // if limit < i, exit
		b.Op3(isa.ADD, prog.T0, prog.T0, prog.T1)
		b.OpI(isa.ADDI, prog.T1, prog.T1, 1)
		b.Jump(loop)
		b.Label(done)
		b.Out(prog.T0)
	})
	if res.Output[0] != 55 {
		t.Errorf("sum = %d, want 55", res.Output[0])
	}
}

func TestCallAndFrame(t *testing.T) {
	b := prog.New("calltest", prog.PPC)
	f := b.Func("main", 1, prog.S0)
	b.Li(prog.S0, 7)
	f.StoreLocal(prog.S0, 0)
	b.Li(prog.A0, 5)
	b.Call("double")
	b.Out(prog.A0) // 10
	f.LoadLocal(prog.T0, 0)
	b.Out(prog.T0) // 7 survived the call frame
	f.Epilogue()

	g := b.Func("double", 0)
	b.Op3(isa.ADD, prog.A0, prog.A0, prog.A0)
	g.Epilogue()

	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tr, res, err := Run(p, 10_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Output[0] != 10 || res.Output[1] != 7 {
		t.Fatalf("output = %v, want [10 7]", res.Output)
	}
	// The epilogues must produce instruction-address loads for RA.
	sum := tr.Summarize()
	if sum.LoadsByClass[isa.LoadInstAddr] < 2 {
		t.Errorf("expected >=2 inst-addr loads (RA restores), got %d",
			sum.LoadsByClass[isa.LoadInstAddr])
	}
}

func TestFloatingPoint(t *testing.T) {
	_, res := buildAndRun(t, prog.AXP, func(b *prog.Builder) {
		b.LoadConstF(prog.FT0, 1.5)
		b.LoadConstF(prog.FT1, 2.5)
		b.Op3(isa.FADD, prog.FT2, prog.FT0, prog.FT1)
		b.Emit(isa.Inst{Op: isa.CVTFI, Rd: prog.T0, Ra: prog.FT2})
		b.Out(prog.T0) // 4
		b.Op3(isa.FMUL, prog.FT3, prog.FT2, prog.FT1)
		b.Emit(isa.Inst{Op: isa.CVTFI, Rd: prog.T1, Ra: prog.FT3})
		b.Out(prog.T1) // 10
		b.Emit(isa.Inst{Op: isa.FSQRT, Rd: prog.FT4, Ra: prog.FT3})
		b.Op3(isa.FLT, prog.T2, prog.FT0, prog.FT4) // 1.5 < sqrt(10) -> 1
		b.Out(prog.T2)
	})
	want := []uint64{4, 10, 1}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Errorf("output[%d] = %d, want %d", i, res.Output[i], want[i])
		}
	}
}

func TestSwitchDispatch(t *testing.T) {
	b := prog.New("switchtest", prog.AXP)
	f := b.Func("main", 0, prog.S0)
	b.Li(prog.S0, 0)
	for i := int64(0); i < 3; i++ {
		b.Li(prog.A0, i)
		b.Call("dispatch")
		b.Op3(isa.ADD, prog.S0, prog.S0, prog.A0)
	}
	b.Out(prog.S0) // 10+20+30 = 60
	f.Epilogue()

	g := b.Func("dispatch", 0)
	b.Switch(prog.A0, prog.T0, "jt", []string{"c0", "c1", "c2"}, "cdef")
	b.Label("c0")
	b.Li(prog.A0, 10)
	b.Jump("dret")
	b.Label("c1")
	b.Li(prog.A0, 20)
	b.Jump("dret")
	b.Label("c2")
	b.Li(prog.A0, 30)
	b.Jump("dret")
	b.Label("cdef")
	b.Li(prog.A0, -1)
	b.Label("dret")
	g.Epilogue()

	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tr, res, err := Run(p, 10_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Output[0] != 60 {
		t.Fatalf("switch sum = %d, want 60", int64(res.Output[0]))
	}
	sum := tr.Summarize()
	if sum.LoadsByClass[isa.LoadDataAddr] == 0 {
		t.Error("switch should emit data-address loads (table base)")
	}
}

func TestVCall(t *testing.T) {
	b := prog.New("vcalltest", prog.AXP)
	b.VTable("vtbl", []string{"methodA", "methodB"})
	// An "object" whose first word points at the vtable.
	obj := b.PtrTable("obj", []string{"vtbl"}, false)

	f := b.Func("main", 0)
	b.LoadConstAddr(prog.A1, int64(obj))
	b.VCall(prog.A1, 0, 1) // call methodB
	b.Out(prog.A0)
	f.Epilogue()

	g := b.Func("methodA", 0)
	b.Li(prog.A0, 111)
	g.Epilogue()
	h := b.Func("methodB", 0)
	b.Li(prog.A0, 222)
	h.Epilogue()

	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tr, res, err := Run(p, 10_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Output[0] != 222 {
		t.Fatalf("vcall result = %d, want 222", res.Output[0])
	}
	sum := tr.Summarize()
	if sum.LoadsByClass[isa.LoadInstAddr] < 2 {
		t.Error("vcall should emit an instruction-address load (method pointer)")
	}
}

func TestStepLimit(t *testing.T) {
	b := prog.New("spin", prog.AXP)
	b.Label("main")
	loop := b.NewLabel("loop")
	b.Label(loop)
	b.Jump(loop)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	_, _, err = Run(p, 1000)
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

func TestR0HardwiredZero(t *testing.T) {
	_, res := buildAndRun(t, prog.AXP, func(b *prog.Builder) {
		b.OpI(isa.ADDI, prog.Zero, prog.Zero, 99)
		b.Out(prog.Zero)
	})
	if res.Output[0] != 0 {
		t.Errorf("R0 = %d after write, want 0", res.Output[0])
	}
}

func TestTraceRecordsMemoryOps(t *testing.T) {
	tr, _ := buildAndRun(t, prog.AXP, func(b *prog.Builder) {
		buf := b.Zeros("buf", 16)
		b.Li(prog.T0, int64(buf))
		b.Li(prog.T1, 0xABCD)
		b.Store(isa.SD, prog.T1, prog.T0, 8)
		b.Load(isa.LD, prog.T2, prog.T0, 8, isa.LoadIntData)
	})
	var load, store *trace.Record
	recs := tr.Expand()
	for i := range recs {
		r := &recs[i]
		if r.IsLoad() && r.Class == isa.LoadIntData && r.Value == 0xABCD {
			load = r
		}
		if r.IsStore() && r.Value == 0xABCD {
			store = r
		}
	}
	if store == nil {
		t.Fatal("store record not found")
	}
	if load == nil {
		t.Fatal("load record not found")
	}
	if load.Addr != store.Addr {
		t.Errorf("load addr %#x != store addr %#x", load.Addr, store.Addr)
	}
	if load.Size != 8 {
		t.Errorf("load size = %d, want 8", load.Size)
	}
}

func TestPPCTargetUsesPoolForWideConstants(t *testing.T) {
	tr, _ := func() (*trace.Trace, *Result) {
		b := prog.New("pool", prog.PPC)
		b.Label("main")
		b.MaterializeInt(prog.T0, 0x12345678) // wider than 16 bits -> pool load
		b.MaterializeInt(prog.T1, 12)         // narrow -> LI
		b.Out(prog.T0)
		b.Ret()
		p, err := b.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		tr, res, err := Run(p, 10_000)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return tr, res
	}()
	sum := tr.Summarize()
	if sum.LoadsByClass[isa.LoadIntData] == 0 {
		t.Error("wide constant on PPC target should be a pool load")
	}
}

func TestMemoryStraddlesPages(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize - 3)
	m.Write(addr, 8, 0x1122334455667788)
	if got := m.Read(addr, 8); got != 0x1122334455667788 {
		t.Errorf("straddling read = %#x", got)
	}
	if got := m.Read(addr+3, 1); got != 0x55 {
		t.Errorf("byte within straddle = %#x, want 0x55", got)
	}
}

func TestMemoryZeroFill(t *testing.T) {
	m := NewMemory()
	if got := m.Read(0xDEAD0000, 8); got != 0 {
		t.Errorf("untouched memory = %#x, want 0", got)
	}
}
