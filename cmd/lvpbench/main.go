// Command lvpbench runs the fixed benchmark-trajectory grid (generation,
// VLT2 codec, annotation, fused streaming pipeline, both timing models)
// and emits the measurements as JSON — the data behind the checked-in
// BENCH_*.json perf baselines. See PERFORMANCE.md for the grid's meaning
// and how to refresh the snapshots.
//
// Usage:
//
//	lvpbench -out BENCH_PR5.json              # full grid, 1s per cell
//	lvpbench -smoke                            # CI sizing, JSON to stdout
//	lvpbench -bench grep -benchtime 2s -out -  # pick workload and duration
//	lvpbench -cpuprofile cpu.pb.gz -out -      # profile the grid cells
//	lvpbench -smoke -compare BENCH_PR10.json   # flag >20% ratio drift
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"lvp/internal/perf"
	"lvp/internal/version"
)

func main() {
	var (
		benchName   = flag.String("bench", "", "workload name (default: first benchmark)")
		scale       = flag.Int("scale", 1, "workload scale")
		benchtime   = flag.String("benchtime", "", `per-cell benchtime, e.g. "1s" or "20x" (default 1s; 2x under -smoke)`)
		smoke       = flag.Bool("smoke", false, "smoke sizing for CI: two iterations per cell")
		out         = flag.String("out", "-", `output file ("-" = stdout)`)
		quiet       = flag.Bool("q", false, "suppress per-cell progress on stderr")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the grid run to this file")
		memprofile  = flag.String("memprofile", "", "write a post-run heap profile to this file")
		compareWith = flag.String("compare", "", "prior BENCH_*.json snapshot: report ratio drift >20% on stderr (informational)")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("lvpbench"))
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := perf.Options{
		Bench: *benchName, Scale: *scale,
		Benchtime: *benchtime, Smoke: *smoke,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	rep, err := perf.Run(opts)
	if err != nil {
		fatal(err)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if *compareWith != "" {
		const threshold = 0.20
		old, err := perf.ReadReport(*compareWith)
		if err != nil {
			// Informational path: a missing or unreadable snapshot must
			// not fail the bench run itself.
			fmt.Fprintln(os.Stderr, "lvpbench: compare:", err)
		} else {
			perf.WriteDrift(os.Stderr, *compareWith, perf.Compare(old, rep, threshold), threshold)
		}
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lvpbench:", err)
	os.Exit(1)
}
