// Command lvpasm assembles a VLR assembly file, executes it, and reports its
// outputs plus (optionally) its value-locality and LVP behaviour — the
// fastest route from a hand-written microbenchmark to the paper's pipeline.
//
// Usage:
//
//	lvpasm prog.s                    # assemble + run, print OUT values
//	lvpasm -target axp -analyze prog.s
//	lvpasm -trace prog.vlt2 prog.s   # also write the binary (VLT2) trace
package main

import (
	"flag"
	"fmt"
	"os"

	"lvp/internal/asm"
	"lvp/internal/locality"
	"lvp/internal/lvp"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/version"
	"lvp/internal/vm"
)

func main() {
	var (
		target      = flag.String("target", "ppc", "codegen target: ppc or axp")
		analyze     = flag.Bool("analyze", false, "report locality and LVP behaviour")
		traceOut    = flag.String("trace", "", "write the binary (VLT2) trace to this file")
		maxSteps    = flag.Int("maxsteps", 50_000_000, "execution step budget")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("lvpasm"))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lvpasm [flags] <prog.s>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	tg, err := prog.TargetByName(*target)
	if err != nil {
		fatal(err)
	}
	p, err := asm.Assemble(path, string(src), tg)
	if err != nil {
		fatal(err)
	}
	tr, res, err := vm.Run(p, *maxSteps)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d instructions executed\n", path, res.Steps)
	for i, v := range res.Output {
		fmt.Printf("out[%d] = %d (%#x)\n", i, int64(v), v)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.Write2(f, tr, trace.Writer2Options{}); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}

	if *analyze {
		for _, r := range locality.Measure(tr, locality.DefaultEntries, 1, 16) {
			fmt.Printf("value locality, depth %2d: %5.1f%%\n", r.Depth, r.Overall.Percent())
		}
		base, err := ppc620.Simulate(tr, nil, ppc620.Config620(), "", nil)
		if err != nil {
			fatal(err)
		}
		for _, cfg := range lvp.Configs {
			ann, st, err := lvp.Annotate(tr, cfg)
			if err != nil {
				fatal(err)
			}
			sim, err := ppc620.Simulate(tr, ann, ppc620.Config620(), cfg.Name, nil)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-9s coverage %5.1f%%  constants %5.1f%%  620 speedup %.3f\n",
				cfg.Name, 100*st.Coverage(), 100*st.ConstantRate(),
				float64(base.Cycles)/float64(sim.Cycles))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lvpasm:", err)
	os.Exit(1)
}
