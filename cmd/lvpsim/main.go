// Command lvpsim regenerates the tables and figures of "Value Locality and
// Load Value Prediction" (ASPLOS 1996) from the built-in benchmark suite.
//
// Usage:
//
//	lvpsim -exp all            # every table and figure
//	lvpsim -exp all -parallel 8  # same output, 8 experiment workers
//	lvpsim -exp fig6 -scale 2  # one experiment at double run length
//	lvpsim -exp zoosweep -zoo stride,two-level  # restrict the predictor zoo
//	lvpsim -list               # list experiment names
//	lvpsim -list-zoo           # list predictor-zoo families
//
// Experiment cells (benchmark × target × config × machine) run on a bounded
// worker pool; results are merged deterministically, so the output is
// byte-identical for every -parallel value.
//
// Observability (see OBSERVABILITY.md):
//
//	lvpsim -exp all -metrics out.json      # JSON metrics snapshot
//	lvpsim -exp all -progress              # live completion line on stderr
//	lvpsim -exp table3 -trace lvpt,cvu -trace-out events.jsonl
//	lvpsim -exp all -pprof localhost:6060  # pprof + /debug/vars while running
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"lvp/internal/exp"
	"lvp/internal/lvp"
	"lvp/internal/obs"
	"lvp/internal/report"
	"lvp/internal/version"
)

func main() {
	var (
		expFlag     = flag.String("exp", "all", "experiment to run (see -list), or comma-separated set, or 'all' / 'paper'")
		scale       = flag.Int("scale", 1, "benchmark run-length multiplier")
		parallel    = flag.Int("parallel", 0, "experiment worker-pool size (0 = GOMAXPROCS, 1 = serial); output is identical for every value")
		zoo         = flag.String("zoo", "", "comma-separated predictor families for the zoosweep experiment (default: every registered family; see -list-zoo)")
		list        = flag.Bool("list", false, "list experiments and exit")
		listZoo     = flag.Bool("list-zoo", false, "list predictor-zoo families and exit")
		timing      = flag.Bool("time", false, "print wall time per experiment")
		format      = flag.String("format", "text", "output format: text or csv")
		metrics     = flag.String("metrics", "", "write a JSON metrics snapshot to this file at exit")
		traceFlag   = flag.String("trace", "", "comma-separated trace channels to enable (lvpt,lct,cvu,cache,sim,pipeline,span or 'all')")
		traceOut    = flag.String("trace-out", "", "write trace events (JSONL) to this file (default stderr)")
		progress    = flag.Bool("progress", false, "print a live cell-completion line on stderr")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof and expvar on this address while running")
		timeout     = flag.Duration("timeout", 0, "abort the run after this wall-clock budget (0 = no limit)")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("lvpsim"))
		return
	}
	switch *format {
	case "text":
	case "csv":
		report.ActiveFormat = report.FormatCSV
	default:
		fmt.Fprintf(os.Stderr, "lvpsim: unknown format %q\n", *format)
		os.Exit(2)
	}

	experiments := exp.Experiments()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-11s %s\n", e.Name, e.Desc)
		}
		return
	}
	if *listZoo {
		for _, f := range lvp.Families() {
			fmt.Printf("%-13s %s\n", f.Name, f.Desc)
		}
		return
	}

	want := map[string]bool{}
	switch *expFlag {
	case "all":
		for _, e := range experiments {
			want[e.Name] = true
		}
	case "paper":
		for _, e := range experiments {
			if e.Paper {
				want[e.Name] = true
			}
		}
	default:
		for _, name := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}

	s := exp.NewSuiteParallel(*scale, *parallel)
	if *zoo != "" {
		for _, name := range strings.Split(*zoo, ",") {
			name = strings.TrimSpace(name)
			if _, err := lvp.FamilyByName(name); err != nil {
				fmt.Fprintf(os.Stderr, "lvpsim: %v (use -list-zoo)\n", err)
				os.Exit(2)
			}
			s.ZooFamilies = append(s.ZooFamilies, name)
		}
	}

	// Wall-clock budget: run every experiment under a deadline context; on
	// expiry the engine stops at the next cell boundary and we exit non-zero.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Structured event tracing: parse channels, open the sink. When the
	// span channel is enabled, install a trace scope so experiment and
	// engine-phase spans stream to the sink as JSONL "span" events.
	if *traceFlag != "" {
		mask, err := obs.ParseChannels(*traceFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lvpsim: %v\n", err)
			os.Exit(2)
		}
		sink := os.Stderr
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lvpsim: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			sink = f
		}
		s.Tracer = obs.NewTracer(sink, mask)
		ctx = obs.WithTrace(ctx, obs.NewTraceID(), s.Tracer, nil)
	}
	s = s.WithContext(ctx)

	if *pprofAddr != "" {
		s.Metrics.Publish("lvp")
		obs.StartDebugServer(*pprofAddr, "lvpsim")
	}

	start := time.Now()
	stopProgress := func() {}
	if *progress {
		stopProgress = startProgress(s, start)
	}

	ran := 0
	for _, e := range experiments {
		if !want[e.Name] {
			continue
		}
		expStart := time.Now()
		ectx, endExp := obs.StartSpan(ctx, "exp", slog.String("name", e.Name))
		err := e.Run(s.WithContext(ectx), os.Stdout)
		endExp()
		s.Metrics.Timer("exp." + e.Name).Observe(time.Since(expStart))
		if err != nil {
			stopProgress()
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "lvpsim: %s: run cancelled: -timeout %v exceeded\n", e.Name, *timeout)
			} else {
				fmt.Fprintf(os.Stderr, "lvpsim: %s: %v\n", e.Name, err)
			}
			os.Exit(1)
		}
		if *timing {
			fmt.Fprintf(os.Stderr, "[%s: %v]\n", e.Name, time.Since(expStart).Round(time.Millisecond))
		}
		ran++
		delete(want, e.Name)
	}
	stopProgress()
	for name := range want {
		fmt.Fprintf(os.Stderr, "lvpsim: unknown experiment %q (use -list)\n", name)
		os.Exit(2)
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "lvpsim: nothing to run (use -list)")
		os.Exit(2)
	}

	// Always report run totals, so long runs end with a measurement even
	// without -progress or -metrics.
	traces, locs, anns, sims := cellCounts(s)
	recs := s.Metrics.Counter("trace.records").Value()
	resident := s.Metrics.Gauge("trace.resident_bytes").Value()
	unitRuns := s.Metrics.Gauge("annotate.resident_bytes").Value()
	fmt.Fprintf(os.Stderr, "lvpsim: %d experiments, %d cells (%d traces, %d locality, %d annotations, %d simulations) in %v; traces hold %d records in %.1f MB (%.1f B/record); unit runs hold %.1f MB\n",
		ran, traces+locs+anns+sims, traces, locs, anns, sims, time.Since(start).Round(time.Millisecond),
		recs, float64(resident)/(1<<20), float64(resident)/float64(max(1, recs)), float64(unitRuns)/(1<<20))
	if costs := layerCosts(s); costs != "" {
		fmt.Fprintf(os.Stderr, "lvpsim: per layer: %s\n", costs)
	}

	if *metrics != "" {
		s.FinalizeMetrics()
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lvpsim: %v\n", err)
			os.Exit(1)
		}
		if err := s.Metrics.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lvpsim: writing %s: %v\n", *metrics, err)
			os.Exit(1)
		}
	}
}

// layerCosts gives the cost of each layer that ran per unit of its work,
// from its phase timer and work counter: the LVP units and the zoo per load,
// the walks and the locality meters per record, the models per instruction.
func layerCosts(s *exp.Suite) string {
	snap := s.Metrics.Snapshot()
	var costs []string
	for _, l := range []struct{ phase, counter, unit string }{
		{"annotate", "lvp.loads", "load"},
		{"zoo", "zoo.loads", "load"},
		{"walk", "walk.records", "record"},
		{"locality", "locality.records", "record"},
		{"sim620", "sim620.instructions", "instruction"},
		{"sim21164", "sim21164.instructions", "instruction"},
	} {
		if n := snap.Counters[l.counter]; n > 0 {
			ns := float64(snap.Timers["phase."+l.phase].TotalNS) / float64(n)
			costs = append(costs, fmt.Sprintf("%s %.1f ns/%s", l.phase, ns, l.unit))
		}
	}
	return strings.Join(costs, ", ")
}

// cellCounts reads the completed-build counters from the suite registry.
func cellCounts(s *exp.Suite) (traces, locs, anns, sims int64) {
	traces = s.Metrics.Counter("progress.trace").Value()
	locs = s.Metrics.Counter("progress.locality").Value()
	anns = s.Metrics.Counter("progress.annotate").Value()
	sims = s.Metrics.Counter("progress.sim620").Value() +
		s.Metrics.Counter("progress.sim21164").Value()
	return traces, locs, anns, sims
}

// startProgress launches a goroutine refreshing one stderr status line with
// live cell-completion counts; the returned function stops it and clears
// the line.
func startProgress(s *exp.Suite, start time.Time) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				// Clear the status line so the summary prints clean.
				fmt.Fprintf(os.Stderr, "\r%*s\r", 79, "")
				return
			case <-tick.C:
				traces, locs, anns, sims := cellCounts(s)
				busy := s.Metrics.Gauge("pool.busy").Value()
				fmt.Fprintf(os.Stderr,
					"\rlvpsim: traces %d · locality %d · annotations %d · simulations %d · %d busy · %v ",
					traces, locs, anns, sims, busy,
					time.Since(start).Round(time.Second))
			}
		}
	}()
	var once bool
	return func() {
		if once {
			return
		}
		once = true
		close(done)
		<-finished
	}
}
