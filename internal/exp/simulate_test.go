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

// The timing models' one entry point, Simulate, reads a trace.SlabSource.
// These tests pin the slab contract from the consumer side: a model's Stats
// depend only on the record and state sequence, never on how it is cut into
// slabs, and a source error always comes back from Simulate.

// slabModel is one timing model behind a uniform signature: the simulated
// stats (as a value comparable with reflect.DeepEqual) and the error.
type slabModel struct {
	name   string
	target prog.Target
	sim    func(src trace.SlabSource) (any, error)
}

var slabModels = []slabModel{
	{"620", prog.PPC, func(src trace.SlabSource) (any, error) {
		return ppc620.Simulate(src, ppc620.Config620(), "Simple", nil)
	}},
	{"620+", prog.PPC, func(src trace.SlabSource) (any, error) {
		return ppc620.Simulate(src, ppc620.Config620Plus(), "Simple", nil)
	}},
	{"21164", prog.AXP, func(src trace.SlabSource) (any, error) {
		return axp21164.Simulate(src, axp21164.Config21164(), "Simple", nil)
	}},
}

// errSourceFailed is the error a chopSource returns after its records.
var errSourceFailed = errors.New("source failed")

// chopSource serves a fixed record stream in slabs of 1 to maxLen records,
// copied into buffers it reuses, so a model that held on to a slab past the
// next NextSlab call would read overwritten records. Nil ann serves nil
// states. With failAt >= 0 the stream ends after failAt records with
// errSourceFailed instead of io.EOF.
type chopSource struct {
	rnd    *rand.Rand
	maxLen int
	recs   []trace.Record
	ann    trace.Annotation
	failAt int
	i      int
	buf    []trace.Record
	states []trace.PredState
}

func newChopSource(seed int64, maxLen int, tr *trace.Trace, ann trace.Annotation, failAt int) *chopSource {
	return &chopSource{
		rnd: rand.New(rand.NewSource(seed)), maxLen: maxLen,
		recs: tr.Expand(), ann: ann, failAt: failAt,
		buf: make([]trace.Record, maxLen), states: make([]trace.PredState, maxLen),
	}
}

func (s *chopSource) NextSlab() ([]trace.Record, []trace.PredState, error) {
	end := len(s.recs)
	if s.failAt >= 0 {
		end = s.failAt
	}
	if s.i >= end {
		if s.failAt >= 0 {
			return nil, nil, errSourceFailed
		}
		return nil, nil, io.EOF
	}
	n := min(1+s.rnd.Intn(s.maxLen), end-s.i)
	recs := s.buf[:n]
	copy(recs, s.recs[s.i:])
	var states []trace.PredState
	if s.ann != nil {
		states = s.states[:n]
		copy(states, s.ann[s.i:])
	}
	s.i += n
	return recs, states, nil
}

// recSource streams the records of an in-memory trace as a BatchSource.
type recSource struct{ recs []trace.Record }

func (s *recSource) NextBatch(buf []trace.Record) (int, error) {
	if len(s.recs) == 0 {
		return 0, io.EOF
	}
	n := copy(buf, s.recs)
	s.recs = s.recs[n:]
	return n, nil
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

// slabWorkload is one trace per target plus its Simple annotation.
type slabWorkload struct {
	name string
	tr   map[string]*trace.Trace
	ann  map[string]trace.Annotation
}

// slabWorkloads returns a few suite workloads and random VM programs.
func slabWorkloads(t *testing.T) []slabWorkload {
	t.Helper()
	s := NewSuiteParallel(1, 1)
	var out []slabWorkload
	for _, name := range []string{"eqntott", "grep", "doduc"} {
		w := slabWorkload{name: name, tr: map[string]*trace.Trace{}, ann: map[string]trace.Annotation{}}
		for _, tg := range []prog.Target{prog.PPC, prog.AXP} {
			tr, err := s.Trace(name, tg)
			if err != nil {
				t.Fatal(err)
			}
			ann, _, err := s.Annotation(name, tg, lvp.Simple)
			if err != nil {
				t.Fatal(err)
			}
			w.tr[tg.Name], w.ann[tg.Name] = tr, ann
		}
		out = append(out, w)
	}
	for seed := int64(1); seed <= 4; seed++ {
		out = append(out, randomWorkload(t, seed))
	}
	return out
}

// randomWorkload runs randomProgram(seed) on both targets.
func randomWorkload(t *testing.T, seed int64) slabWorkload {
	t.Helper()
	w := slabWorkload{name: fmt.Sprintf("random%d", seed), tr: map[string]*trace.Trace{}, ann: map[string]trace.Annotation{}}
	for _, tg := range []prog.Target{prog.PPC, prog.AXP} {
		p, err := randomProgram(seed, tg)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := vm.Run(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		ann, _, err := lvp.Annotate(tr, lvp.Simple)
		if err != nil {
			t.Fatal(err)
		}
		w.tr[tg.Name], w.ann[tg.Name] = tr, ann
	}
	return w
}

// TestSimulateSlabContract: on every model, workload and annotation (nil
// and Simple), Stats are identical whether the trace arrives as one span
// (Trace.Slabs), as Pipe refills (Simple only: a Pipe always annotates), or
// from a source cutting it into random slabs of 1–300 records and of
// exactly 1 record.
func TestSimulateSlabContract(t *testing.T) {
	for _, w := range slabWorkloads(t) {
		for _, m := range slabModels {
			tr, simple := w.tr[m.target.Name], w.ann[m.target.Name]
			for _, ann := range []trace.Annotation{nil, simple} {
				label := fmt.Sprintf("%s/%s/annotated=%v", w.name, m.name, ann != nil)
				want, err := m.sim(tr.Slabs(ann))
				if err != nil {
					t.Fatalf("%s: span: %v", label, err)
				}
				srcs := map[string]trace.SlabSource{
					"slabs of 1":     newChopSource(1, 1, tr, ann, -1),
					"slabs of 1-300": newChopSource(2, 300, tr, ann, -1),
				}
				if ann != nil {
					pipe, err := lvp.NewPipe(&recSource{tr.Expand()}, lvp.Simple, nil)
					if err != nil {
						t.Fatal(err)
					}
					srcs["pipe"] = pipe
				}
				for how, src := range srcs {
					got, err := m.sim(src)
					if err != nil {
						t.Fatalf("%s: %s: %v", label, how, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %s diverged from the span:\n span %+v\n got  %+v", label, how, want, got)
					}
				}
			}
		}
	}
}

// TestSimulateReturnsSourceError: a source that fails after k records
// (k = 0, 1, mid-trace, after the last record) makes every model return
// that error with zero Stats — never a panic, never a partial result. So
// does an in-memory trace paired with an annotation shorter or longer than
// it.
func TestSimulateReturnsSourceError(t *testing.T) {
	w := randomWorkload(t, 1)
	for _, m := range slabModels {
		tr, simple := w.tr[m.target.Name], w.ann[m.target.Name]
		n := tr.Len()
		for _, ann := range []trace.Annotation{simple[:n/2], append(slices.Clip(simple), trace.PredNone)} {
			got, err := m.sim(tr.Slabs(ann))
			if !errors.Is(err, trace.ErrAnnotationLength) {
				t.Fatalf("%s: %d states for %d records: err %v, want %v", m.name, len(ann), n, err, trace.ErrAnnotationLength)
			}
			if !reflect.ValueOf(got).IsZero() {
				t.Fatalf("%s: %d states for %d records: partial Stats %+v", m.name, len(ann), n, got)
			}
		}
		for _, k := range []int{0, 1, n / 2, n} {
			for _, ann := range []trace.Annotation{nil, simple} {
				got, err := m.sim(newChopSource(int64(k), 300, tr, ann, k))
				if !errors.Is(err, errSourceFailed) {
					t.Fatalf("%s: fail after %d of %d records (annotated=%v): err %v, want %v",
						m.name, k, n, ann != nil, err, errSourceFailed)
				}
				if !reflect.ValueOf(got).IsZero() {
					t.Fatalf("%s: fail after %d records: partial Stats %+v", m.name, k, got)
				}
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
	p, err := randomProgram(1, prog.PPC)
	if err != nil {
		f.Fatal(err)
	}
	tr, _, err := vm.Run(p, 0)
	if err != nil {
		f.Fatal(err)
	}
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

// openImage writes data to a file in t's temp dir and returns a function
// that opens it through trace.OpenFile; every decoder and file it opens is
// released when t ends.
func openImage(t *testing.T, data []byte) func() (trace.Decoder, error) {
	path := filepath.Join(t.TempDir(), "trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return func() (trace.Decoder, error) {
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
}

// FuzzSimulate drives raw bytes through the whole file pipeline: a file
// opened by trace.OpenFile → lvp.NewPipe(Simple) → each timing model's
// Simulate, and trace.ReadAll → Trace.Slabs(nil) for the no-LVP path. Nothing may panic; a decode error
// must come back from Simulate exactly when ReadAll reports one; and a
// cleanly decoded trace must simulate identically streamed and in memory.
func FuzzSimulate(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		open := openImage(t, data)
		d, err := open()
		if err != nil {
			return
		}
		whole, readErr := trace.ReadAll(d)
		var ann trace.Annotation
		if readErr == nil {
			if ann, _, err = lvp.Annotate(whole, lvp.Simple); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range slabModels {
			d, err := open()
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			pipe, err := lvp.NewPipe(d, lvp.Simple, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.sim(pipe)
			if (err != nil) != (readErr != nil) {
				t.Fatalf("%s: Simulate error %v, ReadAll error %v", m.name, err, readErr)
			}
			if readErr != nil {
				continue
			}
			if want, err := m.sim(whole.Slabs(ann)); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: streamed stats differ from the in-memory span (err %v)", m.name, err)
			}
			if _, err := m.sim(whole.Slabs(nil)); err != nil {
				t.Fatalf("%s: no-LVP span: %v", m.name, err)
			}
		}
	})
}
