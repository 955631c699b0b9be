// Command benchmark measures the repository's products end to end and layer
// by layer: the paper reproduction (lvpsim's experiments), trace generation
// and reading (tracegen, traceinfo) and the lvpd daemon. It runs each
// workload as a series of passes, each in a fresh process, checks every
// output, and prints every metric by name with its unit. See README.md.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh                          # every workload, end-to-end metrics
//	bash benchmark/run.sh -workload serve-mix -seed 7 -seconds 15
//	bash benchmark/run.sh -trace 1                 # per-layer metrics
//	bash benchmark/run.sh -repeat 2                # stability self-check
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The exit code is non-zero if any output was wrong.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

var (
	workloadFlag = flag.String("workload", "all", "workload to run, or all")
	seedFlag     = flag.Int64("seed", 1, "seed for the generated inputs (serve-mix's jobs)")
	secondsFlag  = flag.Int("seconds", 20, "measure each workload for this many seconds (at least 3 passes)")
	traceFlag    = flag.Int("trace", 0, "1 runs the traced set and reports per-layer metrics")
	repeatFlag   = flag.Int("repeat", 1, "run the end-to-end set this many times and compare the medians")
	outFlag      = flag.String("out", "benchmark/out", "directory for span files and scratch trace files")
	passFlag     = flag.String("pass", "", "internal: run one pass described by this JSON in this process")
)

// minPasses is the fewest timed passes a run makes, however short -seconds.
const minPasses = 3

// passTimeout bounds one pass process.
const passTimeout = 150 * time.Second

func main() {
	flag.Parse()
	if *passFlag != "" {
		if err := childMain(*passFlag); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark pass:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run())
}

func run() int {
	ws := workloads
	if *workloadFlag != "all" {
		w, err := workloadByName(*workloadFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		ws = []workload{w}
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	env := runEnv{
		exe:     exe,
		seed:    *seedFlag,
		seconds: time.Duration(*secondsFlag) * time.Second,
		workers: min(runtime.NumCPU(), 4),
		out:     *outFlag,
	}
	traced := *traceFlag == 1
	sets := make([][]*runResult, max(1, *repeatFlag))
	for i := range sets {
		for _, w := range ws {
			res, err := env.runWorkload(context.Background(), w, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			res.print(os.Stdout, traced)
			sets[i] = append(sets[i], res)
		}
	}
	if len(sets) > 1 {
		printStability(os.Stdout, sets)
	}
	hj, _ := json.Marshal(env.host(sets)) // plain fields: cannot fail
	fmt.Printf("host %s\n", hj)

	final := summary(sets, traced)
	fj, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(fj))
	if !final.Correct {
		return 1
	}
	return 0
}

// runEnv is how the parent launches passes.
type runEnv struct {
	exe     string
	seed    int64
	seconds time.Duration
	workers int
	out     string
}

// passOut is one pass as the parent saw it: the pass's own report plus what
// the parent measured from outside the process.
type passOut struct {
	*passResult
	SetupS, CPUS, RSSMB float64
}

// pass runs one pass of w in a fresh process.
func (e runEnv) pass(ctx context.Context, w workload, workers int, traced bool) (passOut, error) {
	arg, err := json.Marshal(passArgs{Workload: w, Seed: e.seed, Workers: workers, Traced: traced, Out: e.out})
	if err != nil {
		return passOut{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, passTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.exe, "-pass", string(arg))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	launch := time.Now()
	if err := cmd.Run(); err != nil {
		return passOut{}, fmt.Errorf("pass process: %w", err)
	}
	var r passResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return passOut{}, fmt.Errorf("pass result: %w", err)
	}
	ps := cmd.ProcessState
	o := passOut{
		passResult: &r,
		SetupS:     float64(r.TimedStartNS-launch.UnixNano()) / 1e9,
		CPUS:       (ps.UserTime() + ps.SystemTime()).Seconds(),
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		o.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return o, nil
}

// runResult is one run of one workload: a warm-up pass, then timed passes
// until the run's seconds are spent. A traced run alternates untraced and
// traced passes and, for experiment workloads, adds one serial pass.
type runResult struct {
	w       workload
	workers int
	seed    int64
	out     string
	passes  []passOut // untraced, timed
	traced  []passOut
	serial  *passOut
	all     []passOut // every pass, warm-up included, for the checks

	attempted, failed int
	problems          []string
}

func (e runEnv) runWorkload(ctx context.Context, w workload, traced bool) (*runResult, error) {
	res := &runResult{w: w, workers: e.workers, seed: e.seed, out: e.out}
	run := func(workers int, tr bool) (passOut, error) {
		p, err := e.pass(ctx, w, workers, tr)
		if err == nil {
			res.all = append(res.all, p)
		}
		return p, err
	}
	if _, err := run(e.workers, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	deadline := time.Now().Add(e.seconds)
	if traced && w.Kind == kindExperiments {
		p, err := run(1, false)
		if err != nil {
			return nil, fmt.Errorf("serial pass: %w", err)
		}
		res.serial = &p
	}
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		tr := traced && i%2 == 1
		p, err := run(e.workers, tr)
		if err != nil {
			return nil, err
		}
		if tr {
			res.traced = append(res.traced, p)
		} else {
			res.passes = append(res.passes, p)
		}
	}
	res.check()
	return res, nil
}

// check counts the run's ops and failures. Every pass must agree on the
// output digest; a pass that does not has all its ops counted as failed.
func (res *runResult) check() {
	ref := res.all[0].Digest
	for i, p := range res.all {
		res.attempted += len(p.OpsMS)
		failed := p.Failed
		res.problems = append(res.problems, p.Problems...)
		if p.Digest != ref {
			failed = len(p.OpsMS)
			res.problems = append(res.problems, fmt.Sprintf("pass %d: output digest %.12s differs from %.12s", i, p.Digest, ref))
		}
		res.failed += failed
	}
}

func (res *runResult) correct() bool { return res.failed == 0 && res.attempted > 0 }

func medianOf(ps []passOut, f func(passOut) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// endToEndValues returns each end-to-end metric's per-pass values over the
// untraced timed passes; the reported value is their median.
func (res *runResult) endToEndValues() map[string][]float64 {
	v := map[string][]float64{}
	for _, p := range res.passes {
		v["setup_s"] = append(v["setup_s"], p.SetupS)
		v["wall_s"] = append(v["wall_s"], p.WallS)
		v["cpu_s"] = append(v["cpu_s"], p.CPUS)
		v["peak_rss_mb"] = append(v["peak_rss_mb"], p.RSSMB)
	}
	return v
}

func (res *runResult) endToEnd() map[string]float64 {
	out := map[string]float64{}
	for name, xs := range res.endToEndValues() {
		out[name] = median(xs)
	}
	return out
}

// layers returns every per-layer metric: the medians of what the traced
// passes measured inside themselves, plus the ones that need the parent's
// view (cpu_s, untraced and serial passes).
func (res *runResult) layers() map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = medianOf(res.traced, func(p passOut) float64 { return p.Layers[m.Name] })
	}
	wall := medianOf(res.passes, func(p passOut) float64 { return p.WallS })
	cpu := medianOf(res.passes, func(p passOut) float64 { return p.CPUS })
	out["exp.unattributed_s"] = medianOf(res.traced, func(p passOut) float64 { return p.CPUS - p.BusyS })
	out["par.utilization"] = ratio(cpu, wall*float64(res.workers))
	if res.serial != nil {
		out["par.speedup"] = ratio(res.serial.WallS, wall)
	}
	out["obs.trace_overhead_frac"] = ratio(medianOf(res.traced, func(p passOut) float64 { return p.WallS }), wall) - 1
	return out
}

func (res *runResult) print(w io.Writer, traced bool) {
	opsPerPass := len(res.passes[0].OpsMS)
	fmt.Fprintf(w, "%s: %d timed passes + 1 warm-up, workers %d, seed %d, %d ops per pass\n",
		res.w.Name, len(res.passes), res.workers, res.seed, opsPerPass)
	vals := res.endToEndValues()
	for _, m := range endToEnd {
		xs := vals[m.Name]
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "  %-12s %12.6g %-3s  (median of %d; quartiles %.6g..%.6g)\n",
			m.Name, median(xs), m.Unit, len(xs), q1, q3)
	}
	// Op latency is informational. An op is one experiment, one trace written
	// and read back, or one served job from Submit to done; the tail is the
	// highest percentile with at least 10 ops beyond it, or the slowest op
	// when there are too few ops for one above p50.
	pct := func(q float64) float64 {
		return medianOf(res.passes, func(p passOut) float64 { return percentile(p.OpsMS, q) })
	}
	tail, tailName := 100.0, "slowest"
	if tp := tailPercentile(opsPerPass); tp > 50 {
		tail, tailName = tp, fmt.Sprintf("p%g", tp)
	}
	fmt.Fprintf(w, "  %-12s p50 %.6g ms, %s %.6g ms (n=%d per pass; median over passes)\n",
		"op latency", pct(50), tailName, pct(tail), opsPerPass)
	fmt.Fprintf(w, "  %-12s %d of %d ops\n", "failed", res.failed, res.attempted)
	fmt.Fprintf(w, "  %-12s %s\n", "digest", res.all[0].Digest)
	if mae, ok := res.passes[0].Layers["exp.paper_speedup_mae"]; ok {
		fmt.Fprintf(w, "  %-12s %.6g  (mean |measured - paper| over 12 GM speedups)\n", "paper_speedup_mae", mae)
	}
	if b, ok := res.passes[0].Layers["trace.bytes_per_rec"]; ok {
		fmt.Fprintf(w, "  %-12s %.6g B/rec\n", "trace_bytes_per_rec", b)
	}
	if res.w.Kind == kindServe {
		fmt.Fprintf(w, "  %-12s %.6g 1/s\n", "jobs_per_s", float64(opsPerPass)/medianOf(res.passes, func(p passOut) float64 { return p.WallS }))
	}
	for i, p := range res.problems {
		if i == 10 {
			fmt.Fprintf(w, "  ... and %d more failures\n", len(res.problems)-i)
			break
		}
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	if !traced {
		return
	}
	fmt.Fprintf(w, "  per-layer (median of %d traced passes):\n", len(res.traced))
	l := res.layers()
	for _, m := range perLayer {
		fmt.Fprintf(w, "    %-30s %12.6g %s\n", m.Name, l[m.Name], m.Unit)
	}
	if st := res.traced[0].SelfTimes; len(st) > 0 {
		fmt.Fprintf(w, "  self time by span (first traced pass; spans in %s):\n", filepath.Join(res.out, res.w.Name+".spans.jsonl"))
		fmt.Fprintf(w, "    %-24s %7s %10s %10s\n", "span", "count", "wall_s", "self_s")
		for _, s := range st {
			fmt.Fprintf(w, "    %-24s %7d %10.4f %10.4f\n", s.Name, s.Count, s.WallS, s.SelfS)
		}
	}
}

// printStability compares the sets of a -repeat run: per workload and
// end-to-end metric, each set's median and quartile spread, the relative
// difference of the last set from the first, and PASS when the difference
// and every spread (set-up time's excepted) are within the metric's bound.
func printStability(w io.Writer, sets [][]*runResult) {
	fmt.Fprintf(w, "stability over %d sets\n", len(sets))
	fmt.Fprintf(w, "  %-12s %-12s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "first", "last", "spread1", "spread2", "diff", "bound", "verdict")
	first, last := sets[0], sets[len(sets)-1]
	for i := range first {
		v1, v2 := first[i].endToEndValues(), last[i].endToEndValues()
		for _, m := range endToEnd {
			m1, m2 := median(v1[m.Name]), median(v2[m.Name])
			s1, s2 := spread(v1[m.Name]), spread(v2[m.Name])
			diff := ratio(m2-m1, m1)
			ok := math.Abs(diff) <= m.Bound && (m.Name == "setup_s" || (s1 <= m.Bound && s2 <= m.Bound))
			verdict := "PASS"
			if !ok {
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "  %-12s %-12s %12.6g %12.6g %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				first[i].w.Name, m.Name, m1, m2, 100*s1, 100*s2, 100*diff, 100*m.Bound, verdict)
		}
	}
}

// hostRecord describes where and how a result was taken.
type hostRecord struct {
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workers    int            `json:"workers"`
	GoVersion  string         `json:"go_version"`
	Revision   string         `json:"vcs_revision"`
	Seed       int64          `json:"seed"`
	Passes     map[string]int `json:"passes"`
}

func (e runEnv) host(sets [][]*runResult) hostRecord {
	h := hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    e.workers,
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Seed:       e.seed,
		Passes:     map[string]int{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	for _, set := range sets {
		for _, r := range set {
			h.Passes[r.w.Name] += len(r.passes) + len(r.traced)
		}
	}
	return h
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary builds the result line: ops attempted and failed over every set,
// and the last set's end-to-end metrics, or with tracing its per-layer ones.
// With several workloads each metric name is prefixed by its workload's.
func summary(sets [][]*runResult, traced bool) result {
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, set := range sets {
		for _, res := range set {
			out.Attempted += res.attempted
			out.Failed += res.failed
			out.Correct = out.Correct && res.correct()
		}
	}
	set := sets[len(sets)-1]
	for _, res := range set {
		defs, vals := endToEnd, res.endToEnd()
		if traced {
			defs, vals = perLayer, res.layers()
		}
		for _, m := range defs {
			name := m.Name
			if len(set) > 1 {
				name = res.w.Name + "." + name
			}
			out.Metrics[name] = metricValue{vals[m.Name], m.Unit}
		}
	}
	return out
}
