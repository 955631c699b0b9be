// Command tracegen builds a benchmark, executes it functionally, and writes
// its dynamic instruction trace — the counterpart of the paper's
// TRIP6000/ATOM tracing step (§5). Records stream to the output as the VM
// retires them, so memory stays bounded regardless of run length. The
// output is VLT2 (block-structured: checksummed, seekable); -codec picks
// its block codec, raw or flate.
//
// Usage:
//
//	tracegen -bench grep -target ppc -scale 1 -o grep.ppc.vlt2
//	tracegen -bench grep -codec flate -o grep.ppc.vlt2
//	tracegen -bench grep -scale 64 -pprof localhost:6060 -o /dev/null
//	tracegen -list
//
// -pprof serves net/http/pprof on the given address while the trace is
// generated (same helper as lvpsim -pprof), for profiling the generation
// phase itself.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lvp/internal/bench"
	"lvp/internal/obs"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/version"
	"lvp/internal/vm"
)

func main() {
	var (
		benchName   = flag.String("bench", "", "benchmark name (see -list)")
		target      = flag.String("target", "ppc", "codegen target: ppc or axp")
		scale       = flag.Int("scale", 1, "run-length multiplier")
		out         = flag.String("o", "", "output file (default <bench>.<target>.vlt2)")
		codecName   = flag.String("codec", "raw", "block codec: raw or flate")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address while generating")
		list        = flag.Bool("list", false, "list benchmarks and exit")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("tracegen"))
		return
	}

	if *list {
		for _, b := range bench.All() {
			fmt.Printf("%-10s %s\n", b.Name, b.Description)
		}
		return
	}
	if *benchName == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -bench is required (use -list)")
		os.Exit(2)
	}
	if *pprofAddr != "" {
		obs.StartDebugServer(*pprofAddr, "tracegen")
	}
	tg, err := prog.TargetByName(*target)
	if err != nil {
		fatal(err)
	}
	b, err := bench.ByName(*benchName)
	if err != nil {
		fatal(err)
	}
	p, err := b.Build(tg, *scale)
	if err != nil {
		fatal(err)
	}
	codec, err := trace.BlockCodecByName(*codecName)
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s.%s.vlt2", *benchName, tg.Name)
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	sum, outputs, err := streamTrace(f, p, codec)
	if err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d instructions, %d loads, %d outputs\n",
		path, sum.Instructions, sum.Loads, outputs)
}

// streamTrace executes p, encoding each retired record into w on the fly,
// and returns the streaming summary plus the program's output count.
func streamTrace(w io.Writer, p *prog.Program, codec trace.BlockCodec) (trace.Summary, int, error) {
	src := vm.NewSource(p, 0)
	sw, err := trace.NewWriter2Opts(w, p.Name, p.Target.Name, trace.Writer2Options{Codec: codec})
	if err != nil {
		return trace.Summary{}, 0, err
	}
	z := trace.NewSummarizer(p.Name, p.Target.Name)
	buf := make([]trace.Record, 1024)
	for {
		n, err := src.NextBatch(buf)
		for i := range n {
			if werr := sw.WriteRecord(&buf[i]); werr != nil {
				sw.Close() // stops the writer's helper goroutine
				return trace.Summary{}, 0, werr
			}
			z.Add(&buf[i])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			sw.Close()
			return trace.Summary{}, 0, err
		}
	}
	if err := sw.Close(); err != nil {
		return trace.Summary{}, 0, err
	}
	return z.Summary(), len(src.Result().Output), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
