// Package perf is the benchmark-trajectory harness: a fixed grid of
// pipeline-stage benchmarks (generation on its record and batch paths, the
// VLT2 codec, annotation, the fused streaming cell, both timing models, the
// predictor-zoo sweep) executed programmatically via
// testing.Benchmark and reported as a stable JSON document. The checked-in
// BENCH_*.json snapshots give every PR a measurable perf baseline — see
// PERFORMANCE.md for how to read and refresh them.
//
// The grid is deterministic in structure: entry names, ordering and the
// ratio keys never depend on timing, so successive runs diff cleanly and a
// regression shows up as a changed number, not a changed shape.
package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// Schema identifies the report layout for downstream tooling.
const Schema = "lvpbench/v1"

// Entry is one grid cell's measurement. ns/record and records/sec are the
// primary axes; MB/s is reported for the byte-denominated codec stages and
// allocs/record for every stage (the streaming hot paths must hold 0).
type Entry struct {
	Name            string  `json:"name"`
	Records         int64   `json:"records"`
	NsPerRecord     float64 `json:"ns_per_record"`
	RecordsPerSec   float64 `json:"records_per_sec"`
	MBPerSec        float64 `json:"mb_per_sec,omitempty"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
}

// Report is the full bench-grid result.
type Report struct {
	Schema    string `json:"schema"`
	Bench     string `json:"bench"`
	Target    string `json:"target"`
	Scale     int    `json:"scale"`
	Smoke     bool   `json:"smoke,omitempty"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU and GOMAXPROCS record the host's parallelism, so a snapshot's
	// numbers are read against the CPUs that produced them.
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Entries    []Entry `json:"entries"`
	// Ratios are records/sec speedups between named grid cells; the keys
	// are fixed. *_batch_speedup compares a batched stage against its
	// record-at-a-time form on identical work.
	Ratios map[string]float64 `json:"ratios"`
	// Sizes records the at-rest encoded size of the workload trace in each
	// format, in bytes.
	Sizes     map[string]int64 `json:"sizes,omitempty"`
	PeakRSSKB int64            `json:"peak_rss_kb"`
}

// Options configure a grid run.
type Options struct {
	Bench     string // workload name (default: first of bench.All())
	Scale     int    // workload scale (default 1)
	Benchtime string // test.benchtime value, e.g. "1s" or "20x" (default "1s")
	Smoke     bool   // smoke sizing: small trace, few iterations (CI)
	Log       io.Writer
}

// workload is the prepared input shared by every grid cell: one benchmark
// program, its materialized trace, memory-op slab, annotation, and its
// VLT2-raw and VLT2-flate encodings.
type workload struct {
	prog    *prog.Program
	tr      *trace.Trace
	loads   lvp.LoadSlab
	ann     trace.Annotation
	enc2    []byte // VLT2, raw blocks
	enc2f   []byte // VLT2, flate blocks
	records int64
}

// gridCell is one fixed grid entry: bytes != 0 marks byte-denominated
// stages (MB/s reported against the size of the encoding they process).
type gridCell struct {
	name  string
	bytes func(w *workload) int64
	run   func(b *testing.B, w *workload)
}

func enc2Bytes(w *workload) int64 { return int64(len(w.enc2)) }

func enc2fBytes(w *workload) int64 { return int64(len(w.enc2f)) }

// grid is the fixed benchmark grid, in report order. The codec2.* cells
// cover the VLT2 block codec: encode, the sequential stream decoder, the
// zero-copy indexed decoder, and decode of flate-compressed blocks.
// pipeline.file.vlt2 runs the full fused pipeline (indexed decode →
// annotate → 620 timing model) from the encoded trace. The annotate.slab
// pair is the suite's annotation path — a unit run over the trace's
// memory-op slab — under Simple (32-entry CVU) and Constant (128-entry CVU).
var grid = []gridCell{
	{"gen.record", nil, benchGenRecord},
	{"gen.batch", nil, benchGenBatch},
	{"codec2.encode", enc2Bytes, benchEncode2},
	{"codec2.decode.batch", enc2Bytes, benchDecode2Batch},
	{"codec2.decode.indexed", enc2Bytes, benchDecode2Indexed},
	{"codec2.decode.flate", enc2fBytes, benchDecode2Flate},
	{"annotate.batch", nil, benchAnnotateBatch},
	{"annotate.slab", nil, benchAnnotateSlab(lvp.Simple)},
	{"annotate.slab.constant", nil, benchAnnotateSlab(lvp.Constant)},
	{"pipeline.fused.batch", nil, benchFusedBatch},
	{"pipeline.file.vlt2", enc2Bytes, benchFileVLT2},
	{"sim.620.batch", nil, benchSim620Batch},
	{"sim.21164.batch", nil, benchSim21164Batch},
	{"zoo.sweep", nil, benchZooSweep},
	{"zoo.sweep.shared", nil, benchZooSweepShared},
}

// ratios maps each fixed ratio key to its numerator/denominator entries,
// compared on records/sec. annotate_constant_cost is how many times slower
// a Constant unit run is than a Simple one: the CVU work the larger CAM
// adds, so a CVU search growing with occupancy shows up as drift.
var ratios = []struct{ key, num, den string }{
	{"gen_batch_speedup", "gen.batch", "gen.record"},
	{"zoo_shared_speedup", "zoo.sweep.shared", "zoo.sweep"},
	{"annotate_constant_cost", "annotate.slab", "annotate.slab.constant"},
}

// Run executes the full grid and returns the report.
func Run(opts Options) (*Report, error) {
	if opts.Bench == "" {
		opts.Bench = bench.All()[0].Name
	}
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	if opts.Benchtime == "" {
		opts.Benchtime = "1s"
		if opts.Smoke {
			opts.Benchtime = "2x"
		}
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	if err := setBenchtime(opts.Benchtime); err != nil {
		return nil, err
	}
	w, err := prepare(opts.Bench, opts.Scale)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Schema: Schema, Bench: opts.Bench, Target: prog.PPC.Name,
		Scale: opts.Scale, Smoke: opts.Smoke,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Ratios: make(map[string]float64, len(ratios)),
	}
	perSec := make(map[string]float64, len(grid))
	for _, cell := range grid {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			cell.run(b, w)
		})
		if res.N == 0 {
			return nil, fmt.Errorf("perf: %s did not run", cell.name)
		}
		e := Entry{Name: cell.name, Records: w.records}
		perOp := float64(res.T.Nanoseconds()) / float64(res.N) // one op = one full pass
		e.NsPerRecord = round3(perOp / float64(w.records))
		if perOp > 0 {
			e.RecordsPerSec = round3(float64(w.records) * 1e9 / perOp)
		}
		if cell.bytes != nil {
			if n := cell.bytes(w); n > 0 && perOp > 0 {
				e.MBPerSec = round3(float64(n) * 1e9 / perOp / (1 << 20))
			}
		}
		e.AllocsPerRecord = round3(float64(res.AllocsPerOp()) / float64(w.records))
		perSec[cell.name] = e.RecordsPerSec
		rep.Entries = append(rep.Entries, e)
		fmt.Fprintf(opts.Log, "%-24s %12.1f ns/rec %14.0f rec/s %8.3f allocs/rec\n",
			cell.name, e.NsPerRecord, e.RecordsPerSec, e.AllocsPerRecord)
	}
	for _, r := range ratios {
		if den := perSec[r.den]; den > 0 {
			rep.Ratios[r.key] = round3(perSec[r.num] / den)
		}
	}
	rep.Sizes = map[string]int64{
		"vlt2_raw":   int64(len(w.enc2)),
		"vlt2_flate": int64(len(w.enc2f)),
	}
	rep.PeakRSSKB = peakRSSKB()
	return rep, nil
}

// WriteJSON emits the report as stable, indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// prepare builds the workload once; every grid cell reuses it.
func prepare(name string, scale int) (*workload, error) {
	bm, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	p, err := bm.Build(prog.PPC, scale)
	if err != nil {
		return nil, fmt.Errorf("perf: building %s: %w", name, err)
	}
	tr, _, err := vm.Run(p, 0)
	if err != nil {
		return nil, fmt.Errorf("perf: tracing %s: %w", name, err)
	}
	ann, _, err := lvp.Annotate(tr, lvp.Simple)
	if err != nil {
		return nil, fmt.Errorf("perf: annotating %s: %w", name, err)
	}
	var buf2 bytes.Buffer
	if err := trace.Write2(&buf2, tr, trace.Writer2Options{}); err != nil {
		return nil, fmt.Errorf("perf: vlt2 encoding %s: %w", name, err)
	}
	var buf2f bytes.Buffer
	if err := trace.Write2(&buf2f, tr, trace.Writer2Options{Codec: trace.CodecFlate}); err != nil {
		return nil, fmt.Errorf("perf: vlt2/flate encoding %s: %w", name, err)
	}
	return &workload{
		prog: p, tr: tr, loads: lvp.ExtractLoads(tr), ann: ann,
		enc2: buf2.Bytes(), enc2f: buf2f.Bytes(),
		records: int64(len(tr.Records)),
	}, nil
}

// setBenchtime routes the chosen duration into the testing package.
// testing.Init registers the test.* flags; setting test.benchtime is the
// documented way to size testing.Benchmark from a non-test binary.
func setBenchtime(v string) error {
	testingInit()
	return flagSet("test.benchtime", v)
}

// round3 trims a float for stable, readable JSON.
func round3(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1000) / 1000
}

// peakRSSKB reads the process peak resident set (VmHWM) from
// /proc/self/status; 0 when unavailable (non-Linux).
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}

// --- grid cells ---

func benchGenRecord(b *testing.B, w *workload) {
	for i := 0; i < b.N; i++ {
		src := vm.NewSource(w.prog, 0)
		for {
			if _, err := src.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchGenBatch(b *testing.B, w *workload) {
	buf := make([]trace.Record, 256)
	for i := 0; i < b.N; i++ {
		src := vm.NewSource(w.prog, 0)
		for {
			if _, err := src.NextBatch(buf); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchEncode2(b *testing.B, w *workload) {
	for i := 0; i < b.N; i++ {
		wr, err := trace.NewWriter2(io.Discard, w.tr.Name, w.tr.Target)
		if err != nil {
			b.Fatal(err)
		}
		for j := range w.tr.Records {
			if err := wr.WriteRecord(&w.tr.Records[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := wr.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// drainDecoder drives d through the shared batch buffer to EOF.
func drainDecoder(b *testing.B, d trace.Decoder, buf []trace.Record) {
	for {
		if _, err := d.NextBatch(buf); err == io.EOF {
			return
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecode2Batch(b *testing.B, w *workload) {
	buf := make([]trace.Record, 256)
	for i := 0; i < b.N; i++ {
		r, err := trace.NewReader2(bytes.NewReader(w.enc2))
		if err != nil {
			b.Fatal(err)
		}
		drainDecoder(b, r, buf)
	}
}

func benchDecode2Indexed(b *testing.B, w *workload) {
	buf := make([]trace.Record, 256)
	for i := 0; i < b.N; i++ {
		r, err := trace.NewIndexedReaderBytes(w.enc2)
		if err != nil {
			b.Fatal(err)
		}
		drainDecoder(b, r, buf)
	}
}

func benchDecode2Flate(b *testing.B, w *workload) {
	buf := make([]trace.Record, 256)
	for i := 0; i < b.N; i++ {
		r, err := trace.NewReader2(bytes.NewReader(w.enc2f))
		if err != nil {
			b.Fatal(err)
		}
		drainDecoder(b, r, buf)
	}
}

func benchAnnotateBatch(b *testing.B, w *workload) {
	states := make([]trace.PredState, len(w.tr.Records))
	for i := 0; i < b.N; i++ {
		a, err := lvp.NewAnnotator(lvp.Simple, nil)
		if err != nil {
			b.Fatal(err)
		}
		a.RecordBatch(w.tr.Records, states)
	}
}

// benchAnnotateSlab runs a fresh unit under cfg over the workload's
// memory-op slab, as every suite unit run does.
func benchAnnotateSlab(cfg lvp.Config) func(b *testing.B, w *workload) {
	return func(b *testing.B, w *workload) {
		states := make([]trace.PredState, w.loads.Len())
		for i := 0; i < b.N; i++ {
			if _, err := lvp.AnnotateSlab(w.loads, cfg, nil, states); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchFusedBatch runs the fused gen → annotate → 620 cell: the VM's
// batches refill an lvp.Pipe whose annotated slabs feed the timing model.
func benchFusedBatch(b *testing.B, w *workload) {
	for i := 0; i < b.N; i++ {
		pipe, err := lvp.NewPipe(vm.NewSource(w.prog, 0), lvp.Simple, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ppc620.Simulate(pipe, ppc620.Config620(), lvp.Simple.Name, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFileVLT2 runs the full fused pipeline — decode, annotate, 620 timing
// model — sourced from the encoded trace: indexed zero-copy blocks feeding
// the annotate+simulate chain.
func benchFileVLT2(b *testing.B, w *workload) {
	for i := 0; i < b.N; i++ {
		r, err := trace.NewIndexedReaderBytes(w.enc2)
		if err != nil {
			b.Fatal(err)
		}
		pipe, err := lvp.NewPipe(r, lvp.Simple, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ppc620.Simulate(pipe, ppc620.Config620(), lvp.Simple.Name, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// The sim.* cells isolate the machine-model loops on the prepared in-memory
// trace, walked as one zero-copy span.

func benchSim620Batch(b *testing.B, w *workload) {
	for i := 0; i < b.N; i++ {
		if _, err := ppc620.Simulate(w.tr.Slabs(w.ann), ppc620.Config620(), lvp.Simple.Name, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSim21164Batch(b *testing.B, w *workload) {
	for i := 0; i < b.N; i++ {
		if _, err := axp21164.Simulate(w.tr.Slabs(w.ann), axp21164.Config21164(), lvp.Simple.Name, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// The zoo.sweep pair measures the full predictor-zoo registry over the
// workload trace: .sweep re-walks (and re-filters) the record stream per
// family, .shared extracts the load slab once and fans every family out
// over it — the decode-once path exp.ZooSweep takes.

func benchZooSweep(b *testing.B, w *workload) {
	for i := 0; i < b.N; i++ {
		for _, f := range lvp.Families() {
			lvp.MeasureZoo(w.tr, f.New())
		}
	}
}

func benchZooSweepShared(b *testing.B, w *workload) {
	for i := 0; i < b.N; i++ {
		loads := lvp.ExtractLoads(w.tr)
		for _, f := range lvp.Families() {
			lvp.MeasureZooLoads(loads, f.New())
		}
	}
}
