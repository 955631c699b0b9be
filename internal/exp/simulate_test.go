package exp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"lvp/internal/axp21164"
	"lvp/internal/isa"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// The timing models' one entry point, Simulate, reads a compact trace and
// its annotation. These tests pin that entry point from the caller's side:
// the invariants every run keeps, the refusal of an annotation that does not
// fit its trace, and (FuzzSimulate) arbitrary file bytes never panicking.

// timingModel is one timing model behind a uniform signature.
type timingModel struct {
	name   string
	target prog.Target
	// width bounds the instructions retired per cycle: CompleteWidth on
	// the 620, IssueWidth on the 21164.
	width int
	// countsUnannotated: without an annotation the model still counts
	// every load, as PredNone (the 21164); otherwise it counts none.
	countsUnannotated bool
	sim               func(t *trace.Trace, ann trace.Annotation) (simResult, error)
}

// simResult is a model's Stats plus the fields the invariants read.
type simResult struct {
	stats         any // the model's Stats, comparable with reflect.DeepEqual
	cycles, insts int
	loadStates    [trace.NumPredStates]int
}

func run620(mc ppc620.Config) func(*trace.Trace, trace.Annotation) (simResult, error) {
	return func(t *trace.Trace, ann trace.Annotation) (simResult, error) {
		st, err := ppc620.Simulate(t, ann, mc, "test", nil)
		return simResult{st, st.Cycles, st.Instructions, st.LoadStates}, err
	}
}

func run21164(t *trace.Trace, ann trace.Annotation) (simResult, error) {
	st, err := axp21164.Simulate(t, ann, axp21164.Config21164(), "test", nil)
	return simResult{st, st.Cycles, st.Instructions, st.LoadStates}, err
}

var timingModels = []timingModel{
	{"620", prog.PPC, ppc620.Config620().CompleteWidth, false, run620(ppc620.Config620())},
	{"620+", prog.PPC, ppc620.Config620Plus().CompleteWidth, false, run620(ppc620.Config620Plus())},
	{"21164", prog.AXP, axp21164.Config21164().IssueWidth, true, run21164},
}

// randomProgram builds a small terminating program for target: a counted
// loop whose body is a random mix of loads and stores over a 512-byte
// buffer (so addresses repeat, alias and hold constants), integer ALU ops,
// multiplies and divides, FP loads and adds, and forward conditional
// branches.
func randomProgram(seed int64, target prog.Target) (*prog.Program, error) {
	rnd := rand.New(rand.NewSource(seed))
	b := prog.New(fmt.Sprintf("random%d", seed), target)
	b.Zeros("buf", 512)
	f := b.Func("main", 0, prog.S0, prog.S1, prog.S2)
	b.GotData(prog.S1, "buf")
	b.Li(prog.S0, 0)
	b.MaterializeInt(prog.S2, int64(20+rnd.Intn(60)))
	loop, done := b.NewLabel("loop"), b.NewLabel("done")
	b.Label(loop)
	b.Branch(isa.BGE, prog.S0, prog.S2, done)
	regs := []isa.Reg{prog.T0, prog.T1, prog.T2, prog.T3, prog.T4, prog.T5}
	reg := func() isa.Reg { return regs[rnd.Intn(len(regs))] }
	fregs := []isa.Reg{prog.FT0, prog.FT1, prog.FT2}
	freg := func() isa.Reg { return fregs[rnd.Intn(len(fregs))] }
	for k, n := 0, 8+rnd.Intn(40); k < n; k++ {
		off := 8 * int64(rnd.Intn(64))
		switch rnd.Intn(8) {
		case 0, 1:
			b.LoadInt(reg(), prog.S1, off)
		case 2:
			b.StoreInt(reg(), prog.S1, off)
		case 3:
			ops := []isa.Op{isa.ADD, isa.SUB, isa.XOR, isa.AND}
			b.Op3(ops[rnd.Intn(len(ops))], reg(), reg(), reg())
		case 4:
			ops := []isa.Op{isa.MUL, isa.DIV}
			b.Op3(ops[rnd.Intn(len(ops))], reg(), reg(), reg())
		case 5:
			b.OpI(isa.ADDI, reg(), prog.S0, int64(rnd.Intn(16)))
		case 6:
			fd := freg()
			b.Load(isa.FLD, fd, prog.S1, off, isa.LoadFPData)
			b.Op3(isa.FADD, fd, fd, freg())
		case 7:
			skip := b.NewLabel("skip")
			b.Branch(isa.BEQ, reg(), reg(), skip)
			b.OpI(isa.ADDI, reg(), reg(), 1)
			b.Label(skip)
		}
	}
	b.OpI(isa.ADDI, prog.S0, prog.S0, 1)
	b.Jump(loop)
	b.Label(done)
	b.Out(prog.T0)
	f.Epilogue()
	return b.Build()
}

// randomTrace runs randomProgram(seed) for target on the VM.
func randomTrace(tb testing.TB, seed int64, target prog.Target) *trace.Trace {
	tb.Helper()
	p, err := randomProgram(seed, target)
	if err != nil {
		tb.Fatal(err)
	}
	tr, _, err := vm.Run(p, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// annotate is lvp.Annotate for a test that cannot continue without it.
func annotate(t *testing.T, tr *trace.Trace, cfg lvp.Config) trace.Annotation {
	t.Helper()
	ann, _, err := lvp.Annotate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ann
}

// TestSimulateInvariants runs the 620, the 620+ and the 21164 over three
// suite workloads and randomProgram seeds 1–8, each on its target, without
// an annotation and under Simple and Perfect, and checks what every run
// must keep: one committed instruction per record; with an annotation, one
// load state per dynamic load (without one, the 21164 counts every load as
// PredNone and the 620 counts none); at least ⌈instructions / width⌉
// cycles; and the same Stats from a second run.
func TestSimulateInvariants(t *testing.T) {
	s := NewSuiteParallel(1, 1)
	for _, m := range timingModels {
		var traces []*trace.Trace
		for _, name := range []string{"eqntott", "grep", "doduc"} {
			tr, err := s.Trace(name, m.target)
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, tr)
		}
		for seed := int64(1); seed <= 8; seed++ {
			traces = append(traces, randomTrace(t, seed, m.target))
		}
		for _, tr := range traces {
			loads := tr.Mem().Len()
			for _, cfg := range []*lvp.Config{nil, &lvp.Simple, &lvp.Perfect} {
				var ann trace.Annotation
				if cfg != nil {
					ann = annotate(t, tr, *cfg)
				}
				label := fmt.Sprintf("%s/%s/%s", m.name, tr.Name, lvpLabel(cfg))
				got, err := m.sim(tr, ann)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got.insts != tr.Len() {
					t.Errorf("%s: %d instructions for %d records", label, got.insts, tr.Len())
				}
				var want [trace.NumPredStates]int
				switch {
				case ann != nil:
					sum := 0
					for _, n := range got.loadStates {
						sum += n
					}
					if sum != loads {
						t.Errorf("%s: load states %v sum to %d, want the %d loads", label, got.loadStates, sum, loads)
					}
				case m.countsUnannotated:
					want[trace.PredNone] = loads
					fallthrough
				default:
					if got.loadStates != want {
						t.Errorf("%s: load states %v without an annotation, want %v", label, got.loadStates, want)
					}
				}
				if floor := (got.insts + m.width - 1) / m.width; got.cycles < floor {
					t.Errorf("%s: %d cycles for %d instructions at width %d, below %d", label, got.cycles, got.insts, m.width, floor)
				}
				again, err := m.sim(tr, ann)
				if err != nil || !reflect.DeepEqual(again.stats, got.stats) {
					t.Errorf("%s: a second run differs (err %v):\n first  %+v\n second %+v", label, err, got.stats, again.stats)
				}
			}
		}
	}
}

// TestSimulateRejectsAnnotationLength: an annotation shorter or longer than
// its trace (an empty non-nil one included) makes every model return
// trace.ErrAnnotationLength with zero Stats — never a panic, never a partial
// result.
func TestSimulateRejectsAnnotationLength(t *testing.T) {
	for _, m := range timingModels {
		tr := randomTrace(t, 1, m.target)
		simple := annotate(t, tr, lvp.Simple)
		n := tr.Len()
		for _, ann := range []trace.Annotation{simple[:0], simple[:n/2], append(slices.Clip(simple), trace.PredNone)} {
			got, err := m.sim(tr, ann)
			if !errors.Is(err, trace.ErrAnnotationLength) {
				t.Fatalf("%s: %d states for %d records: err %v, want %v", m.name, len(ann), n, err, trace.ErrAnnotationLength)
			}
			if !reflect.ValueOf(got.stats).IsZero() {
				t.Fatalf("%s: %d states for %d records: partial Stats %+v", m.name, len(ann), n, got.stats)
			}
		}
	}
}

// fuzzSeeds returns the checked-in VLT1 fixtures (internal/trace's
// testdata/vlt1: minimal and padded count fields) and a small real trace in
// VLT2 (raw and flate blocks), plus truncations of each.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	var files [][]byte
	for _, name := range []string{"shapes.vlt", "shapes.padded.vlt"} {
		b, err := os.ReadFile(filepath.Join("..", "trace", "testdata", "vlt1", name))
		if err != nil {
			f.Fatal(err)
		}
		files = append(files, b)
	}
	tr := randomTrace(f, 1, prog.PPC)
	tr = trace.FromRecords(tr.Name, tr.Target, tr.Expand()[:min(tr.Len(), 400)])
	for _, opts := range []trace.Writer2Options{{}, {Codec: trace.CodecFlate}} {
		var b bytes.Buffer
		if err := trace.Write2(&b, tr, opts); err != nil {
			f.Fatal(err)
		}
		files = append(files, b.Bytes())
	}
	var seeds [][]byte
	for _, full := range files {
		seeds = append(seeds, full, full[:len(full)/2], full[:len(full)-1])
	}
	return seeds
}

// openImage writes data to a file in t's temp dir and opens it through
// trace.OpenFile; the file and the decoder are released when t ends.
func openImage(t *testing.T, data []byte) (trace.Decoder, error) {
	path := filepath.Join(t.TempDir(), "trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	d, err := trace.OpenFile(f)
	if err != nil {
		return nil, err
	}
	if c, ok := d.(io.Closer); ok {
		t.Cleanup(func() { c.Close() })
	}
	return d, nil
}

// FuzzSimulate drives raw bytes through the whole file pipeline: a file
// opened by trace.OpenFile → trace.ReadAll → lvp.Annotate(Simple) → each
// timing model's Simulate, with that annotation and without one. Nothing
// may panic; a decode error surfaces from ReadAll, and a decoded trace
// simulates without error, one committed instruction per record.
func FuzzSimulate(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := openImage(t, data)
		if err != nil {
			return
		}
		tr, err := trace.ReadAll(d)
		if err != nil {
			return
		}
		ann := annotate(t, tr, lvp.Simple)
		for _, m := range timingModels {
			for _, a := range []trace.Annotation{ann, nil} {
				got, err := m.sim(tr, a)
				if err != nil {
					t.Fatalf("%s (annotated=%v): %v", m.name, a != nil, err)
				}
				if got.insts != tr.Len() {
					t.Fatalf("%s (annotated=%v): %d instructions for %d records", m.name, a != nil, got.insts, tr.Len())
				}
			}
		}
	})
}
