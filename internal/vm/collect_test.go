package vm

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

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

// TestRunMatchesSource checks the chunked collector at and around chunk
// boundaries: Run's records equal the Source's record stream pulled one
// record per NextBatch, its Result is the same, and Records is allocated at
// exactly its final length.
func TestRunMatchesSource(t *testing.T) {
	for _, n := range []int{1, runChunk - 1, runChunk, runChunk + 1, 3 * runChunk} {
		p := nopProgram(n)
		tr, res, err := Run(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		src := NewSource(p, 0)
		var recs []trace.Record
		var one [1]trace.Record
		for {
			k, err := src.NextBatch(one[:])
			recs = append(recs, one[:k]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(tr.Records) != n || !reflect.DeepEqual(tr.Records, recs) {
			t.Fatalf("n=%d: Run yielded %d records, differing from the Source's %d", n, len(tr.Records), len(recs))
		}
		if want := src.Result(); !reflect.DeepEqual(res, want) {
			t.Fatalf("n=%d: Result %+v, want %+v", n, res, want)
		}
		if cap(tr.Records) != len(tr.Records) {
			t.Fatalf("n=%d: cap(Records) = %d, want len %d", n, cap(tr.Records), len(tr.Records))
		}
	}
}

// TestCollectLengths drives collect from a synthetic batch source,
// including the empty stream no program can produce, with batches that do
// not divide the chunk, and an error mid-stream.
func TestCollectLengths(t *testing.T) {
	for _, n := range []int{0, 1, runChunk - 1, runChunk, runChunk + 1, 3 * runChunk} {
		i := 0
		next := func(buf []trace.Record) (int, error) {
			if i == n {
				return 0, io.EOF
			}
			k := min(len(buf), n-i, 1000)
			for j := range buf[:k] {
				buf[j] = trace.Record{PC: uint64(i + j)}
			}
			i += k
			return k, nil
		}
		recs, err := collect(next)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != n || cap(recs) != n {
			t.Fatalf("n=%d: len %d cap %d", n, len(recs), cap(recs))
		}
		for j := range recs {
			if recs[j].PC != uint64(j) {
				t.Fatalf("n=%d: record %d has PC %d", n, j, recs[j].PC)
			}
		}
	}
	boom := fmt.Errorf("boom")
	if _, err := collect(func([]trace.Record) (int, error) { return 1, boom }); err != boom {
		t.Fatalf("error = %v, want %v", err, boom)
	}
}

// TestRunAllocBound pins Run's allocation on a trace of 1M+ records: the
// chunks plus the exact-length result, at most 2.5x the final records'
// bytes (append-doubling allocated about 5x).
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
	n := len(tr.Records)
	if n < 1_000_000 {
		t.Fatalf("trace has %d records, want 1M+", n)
	}
	final := float64(n) * float64(unsafe.Sizeof(trace.Record{}))
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("Run allocated %.2fx the final records' bytes", got/final)
	if got > 2.5*final {
		t.Fatalf("Run allocated %.1f MB for %.1f MB of records (%.2fx), want <= 2.5x",
			got/(1<<20), final/(1<<20), got/final)
	}
}
