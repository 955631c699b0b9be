package vm

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"lvp/internal/bench"
	"lvp/internal/isa"
	"lvp/internal/prog"
	"lvp/internal/trace"
)

// nopProgram retires exactly n >= 1 instructions: n-1 NOPs, then HALT.
func nopProgram(n int) *prog.Program {
	code := make([]isa.Inst, n)
	for i := range code[:n-1] {
		code[i] = isa.Inst{Op: isa.NOP}
	}
	code[n-1] = isa.Inst{Op: isa.HALT}
	return &prog.Program{Name: fmt.Sprintf("nop%d", n), Target: prog.PPC, Code: code, Entry: prog.CodeBase}
}

// loopProgram retires 2*iters+2 instructions: a counter load, a two-
// instruction countdown loop, then HALT.
func loopProgram(iters int) *prog.Program {
	r := isa.Reg(1)
	code := []isa.Inst{
		{Op: isa.LI, Rd: r, Imm: int64(iters)},
		{Op: isa.ADDI, Rd: r, Ra: r, Imm: -1},
		{Op: isa.BNE, Ra: r, Rb: isa.R0, Imm: int64(prog.CodeBase + isa.InstBytes)},
		{Op: isa.HALT},
	}
	return &prog.Program{Name: "loop", Target: prog.PPC, Code: code, Entry: prog.CodeBase}
}

// countProgram retires exactly n >= 1 instructions from at most five static
// instructions: loopProgram's countdown, with a NOP before the HALT when n
// is odd (below four, nopProgram).
func countProgram(n int) *prog.Program {
	if n < 4 {
		return nopProgram(n)
	}
	p := loopProgram((n - 2 - n%2) / 2)
	if n%2 == 1 {
		p.Code = slices.Insert(p.Code, 3, isa.Inst{Op: isa.NOP})
	}
	p.Name = fmt.Sprintf("count%d", n)
	return p
}

// TestRunMatchesSource checks that Run's compact trace expands to exactly
// the Source's record stream, with the same Result: on programs whose runs
// end around the trace builder's chunk boundaries (pulled one record per
// NextBatch), on a straight-line program of trace.MaxStaticRows static
// instructions, and on every workload of the suite on both targets at
// scale 1. One static instruction more fails with trace.ErrStaticRows.
func TestRunMatchesSource(t *testing.T) {
	check := func(name string, p *prog.Program, batch int) {
		tr, res, err := Run(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		src := NewSource(p, 0)
		buf := make([]trace.Record, batch)
		n := 0
		for _, recs := range tr.Batches() {
			for len(recs) > 0 {
				k, err := src.NextBatch(buf[:min(batch, len(recs))])
				if err != nil {
					t.Fatalf("%s: Source failed after %d records: %v", name, n, err)
				}
				for i := range buf[:k] {
					if buf[i] != recs[i] {
						t.Fatalf("%s: record %d: Run %+v, Source %+v", name, n+i, recs[i], buf[i])
					}
				}
				recs, n = recs[k:], n+k
			}
		}
		if k, err := src.NextBatch(buf); k != 0 || err != io.EOF {
			t.Fatalf("%s: Source has records past Run's %d (%d, %v)", name, n, k, err)
		}
		if want := src.Result(); !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: Result %+v, want %+v", name, res, want)
		}
	}
	const chunk = 1 << 16
	for _, n := range []int{1, 2, 5, chunk - 1, chunk, chunk + 1, 3 * chunk} {
		if res, err := Exec(countProgram(n), 0); err != nil || res.Steps != n {
			t.Fatalf("countProgram(%d) retires %+v, %v", n, res, err)
		}
		check(fmt.Sprintf("count%d", n), countProgram(n), 1)
	}
	check("nop", nopProgram(trace.MaxStaticRows), 1)
	if _, _, err := Run(nopProgram(trace.MaxStaticRows+1), 0); !errors.Is(err, trace.ErrStaticRows) {
		t.Fatalf("Run of %d static instructions: %v, want trace.ErrStaticRows", trace.MaxStaticRows+1, err)
	}
	for _, b := range bench.All() {
		for _, target := range []prog.Target{prog.PPC, prog.AXP} {
			p, err := b.Build(target, 1)
			if err != nil {
				t.Fatal(err)
			}
			check(b.Name+"/"+target.Name, p, 256)
		}
	}
}

// TestRunAllocBound pins Run's allocation on a trace of 1M+ records at most
// 2.5x the compact trace's final bytes: the builder's chunked lanes plus the
// exact-length lanes they are copied into (append-growth would allocate
// about 5x).
func TestRunAllocBound(t *testing.T) {
	p := loopProgram(600_000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr, _, err := Run(p, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.Len(); n < 1_000_000 {
		t.Fatalf("trace has %d records, want 1M+", n)
	}
	final := float64(tr.ResidentBytes())
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("Run allocated %.2fx the compact trace's %.1f MB", got/final, final/(1<<20))
	if got > 2.5*final {
		t.Fatalf("Run allocated %.1f MB for a %.1f MB trace (%.2fx), want <= 2.5x",
			got/(1<<20), final/(1<<20), got/final)
	}
}
