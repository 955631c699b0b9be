package asm

import (
	"fmt"
	"strings"
	"testing"

	"lvp/internal/isa"
	"lvp/internal/prog"
	"lvp/internal/vm"
)

func assembleRun(t *testing.T, src string) []uint64 {
	t.Helper()
	p, err := Assemble("test.s", src, prog.AXP)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	res, err := vm.Exec(p, 1_000_000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Output
}

func TestAssembleArithmetic(t *testing.T) {
	out := assembleRun(t, `
; sum 1..10
main:
    li   t0, 0        ; sum
    li   t1, 1        ; i
    li   t2, 10
loop:
    blt  t2, t1, done
    add  t0, t0, t1
    addi t1, t1, 1
    j    loop
done:
    out  t0
    ret
`)
	if len(out) != 1 || out[0] != 55 {
		t.Fatalf("output = %v, want [55]", out)
	}
}

func TestAssembleDataAndMemory(t *testing.T) {
	out := assembleRun(t, `
.words64 tab 7, 9, -2
.zeros   buf 16
.bytes   msg "hi\n"

main:
    la   s0, tab !daddr
    ld   t0, 0(s0)
    ld   t1, 8(s0)
    add  t2, t0, t1
    out  t2              ; 16
    la   s1, buf
    sd   t2, 0(s1)
    ld   t3, 0(s1)
    out  t3              ; 16
    la   s2, msg
    lbu  t4, 0(s2)
    out  t4              ; 'h'
    ret
`)
	want := []uint64{16, 16, 'h'}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

func TestAssembleCallsAndTables(t *testing.T) {
	out := assembleRun(t, `
.ptrtable fns code double, triple

main:
    addi sp, sp, -8
    sd   ra, 0(sp)       ; save the link register around the calls
    li   a0, 5
    call double
    out  a0              ; 10
    la   t0, fns !daddr
    ld   t1, 8(t0) !iaddr
    li   a0, 5
    jalr ra, (t1)
    out  a0              ; 15
    ld   ra, 0(sp) !iaddr
    addi sp, sp, 8
    ret

double:
    add  a0, a0, a0
    ret

triple:
    mv   t9, a0
    add  a0, a0, a0
    add  a0, a0, t9
    ret
`)
	want := []uint64{10, 15}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

func TestAssembleFloat(t *testing.T) {
	out := assembleRun(t, `
.float64 xs 1.5, 2.5

main:
    la    s0, xs !daddr
    fld   ft0, 0(s0) !fp
    fld   ft1, 8(s0)
    fadd  ft2, ft0, ft1
    lcf   ft3, 0.5
    fmul  ft2, ft2, ft3
    cvtfi t0, ft2
    out   t0             ; (1.5+2.5)*0.5 = 2
    ret
`)
	if out[0] != 2 {
		t.Fatalf("fp result = %d, want 2", out[0])
	}
}

func TestAssembleLoadClassTags(t *testing.T) {
	p, err := Assemble("t.s", `
main:
    lw  t0, 0(gp) !iaddr
    lw  t1, 4(gp)
    flw ft0, 8(gp)
    ret
`, prog.PPC)
	if err != nil {
		t.Fatal(err)
	}
	classes := map[isa.LoadClass]int{}
	for _, in := range p.Code {
		if isa.IsLoad(in.Op) {
			classes[in.Class]++
		}
	}
	if classes[isa.LoadInstAddr] < 1 {
		t.Error("!iaddr tag not applied")
	}
	if classes[isa.LoadIntData] < 1 {
		t.Error("default int-data class not applied")
	}
	if classes[isa.LoadFPData] < 1 {
		t.Error("default fp class not applied to flw")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{"main:\n  frobnicate t0\n  ret", "unknown instruction"},
		{"main:\n  add t0, t1\n  ret", "missing operand"},
		{"main:\n  lw t0, t1\n  ret", "bad memory operand"},
		{"main:\n  li qq, 5\n  ret", "bad register"},
		{".bogus x 1\nmain:\n  ret", "unknown directive"},
		{"main:\n  beq t0, t1, nowhere\n  ret", "unresolved code label"},
		{"main:\n  lw t0, 0(gp) !weird\n  ret", "unknown load class"},
		{"main:\n  li t0, zzz\n  ret", "bad integer"},
	}
	for _, c := range cases {
		_, err := Assemble("e.s", c.src, prog.AXP)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("src %q: err = %v, want containing %q", c.src, err, c.frag)
		}
	}
}

func TestAssembleCharLiteralAndHex(t *testing.T) {
	out := assembleRun(t, `
main:
    li  t0, 'A'
    out t0
    li  t1, 0x10
    out t1
    li  t2, -5
    out t2
    ret
`)
	if out[0] != 'A' || out[1] != 16 || int64(out[2]) != -5 {
		t.Fatalf("literals = %v", out)
	}
}

func TestAssembleCommentsAndLabelsOnOneLine(t *testing.T) {
	out := assembleRun(t, `
main: li t0, 3   # trailing comment
      out t0     ; another
      ret
`)
	if out[0] != 3 {
		t.Fatalf("out = %v", out)
	}
}

func TestAssembleUnaryAndJalrForms(t *testing.T) {
	out := assembleRun(t, `
main:
    li    t0, 9
    cvtif ft0, t0
    fsqrt ft1, ft0
    cvtfi t1, ft1
    out   t1            ; 3
    movfi t2, ft0
    movif ft2, t2
    fneg  ft3, ft2
    fabs  ft4, ft3
    fmov  ft5, ft4
    cvtfi t3, ft5
    out   t3            ; 9
    laf   t4, main      ; GOT function-address load
    j     over
over:
    ret
`)
	if out[0] != 3 || out[1] != 9 {
		t.Fatalf("out = %v", out)
	}
}

func TestAssembleJalrRegisterOnlyForm(t *testing.T) {
	out := assembleRun(t, `
main:
    addi sp, sp, -8
    sd   ra, 0(sp)
    laf  t0, leaf
    jalr ra, t0         ; bare-register form
    out  a0
    ld   ra, 0(sp) !iaddr
    addi sp, sp, 8
    ret
leaf:
    li   a0, 77
    ret
`)
	if out[0] != 77 {
		t.Fatalf("out = %v", out)
	}
}

func TestAssembleNopAndWords32(t *testing.T) {
	out := assembleRun(t, `
.words32 w32 -1, 260

main:
    nop
    la  t0, w32
    lw  t1, 0(t0)
    out t1              ; -1 sign-extended
    lwu t2, 0(t0)
    out t2              ; 0xFFFFFFFF
    lw  t3, 4(t0)
    out t3              ; 260
    ret
`)
	if int64(out[0]) != -1 || out[1] != 0xFFFFFFFF || out[2] != 260 {
		t.Fatalf("out = %v", out)
	}
}

func TestAssembleDirectiveErrors(t *testing.T) {
	cases := []struct {
		src, frag string
	}{
		{".ptrtable t weird a\nmain:\n ret", "code or data"},
		{".float64 xs abc\nmain:\n ret", "bad float"},
		{".bytes msg 42\nmain:\n ret", "quoted string"},
		{".zeros\nmain:\n ret", "directive needs a name"},
		{".words64 w zz\nmain:\n ret", "bad integer"},
		{"main:\n lcf ft0, xx\n ret", "bad float"},
		{"main:\n la t0\n ret", "register and a symbol"},
		{"main:\n jal t5, somewhere\nsomewhere:\n ret", "link register must be ra or zero"},
	}
	for _, c := range cases {
		_, err := Assemble("e.s", c.src, prog.AXP)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("src %q: err = %v, want %q", c.src, err, c.frag)
		}
	}
}

func TestAssemblePPCTarget(t *testing.T) {
	p, err := Assemble("p.s", `
.wordsptr ptrs 1, 2
main:
    la t0, ptrs
    ret
`, prog.PPC)
	if err != nil {
		t.Fatal(err)
	}
	if p.Target.Name != "ppc" {
		t.Errorf("target = %s", p.Target.Name)
	}
}

// TestAssembleZerosBound checks .zeros sizes are bounded: a negative size,
// or one that would push the data segment past the heap, is an assembly
// error naming the bound instead of a runtime panic or an unrecoverable
// out-of-memory.
func TestAssembleZerosBound(t *testing.T) {
	limit := prog.HeapBase - prog.DataBase
	for _, src := range []string{
		".zeros big 1099511627776\nmain:\n ret",
		".zeros x -1\nmain:\n ret",
		fmt.Sprintf(".zeros x %d\nmain:\n ret", limit+1),
		fmt.Sprintf(".zeros a %d\n.zeros b %d\nmain:\n ret", limit/2, limit/2+8),
	} {
		_, err := Assemble("z.s", src, prog.AXP)
		if err == nil || !strings.Contains(err.Error(), "HeapBase-DataBase") {
			t.Errorf("src %q: err = %v, want one naming HeapBase-DataBase", src, err)
		}
	}
	if _, err := Assemble("z.s", fmt.Sprintf(".zeros a %d\n.zeros b %d\nmain:\n ret", limit/4, limit/4), prog.AXP); err != nil {
		t.Errorf("two quarter-segment reservations: %v", err)
	}
}

// FuzzAssemble assembles arbitrary source for both targets and runs what
// assembles under a step bound: assembly and execution may fail, but never
// panic or exhaust memory.
func FuzzAssemble(f *testing.F) {
	f.Add(".zeros big 1099511627776\nmain:\n ret")
	f.Add(".zeros x -1\nmain:\n ret")
	f.Add(".words64 tab 7, 9\n.zeros buf 16\nmain:\n la s0, tab !daddr\n ld t0, 0(s0)\n out t0\n ret")
	f.Add("main:\n li t0, 1\nloop:\n addi t0, t0, 1\n j loop")
	f.Fuzz(func(t *testing.T, src string) {
		for _, tg := range prog.Targets {
			p, err := Assemble("fuzz.s", src, tg)
			if err != nil {
				continue
			}
			vm.Exec(p, 10_000)
		}
	})
}
