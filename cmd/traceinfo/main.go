// Command traceinfo summarises a trace file (VLT1 or VLT2, auto-detected):
// dynamic instruction mix, load-class breakdown, value locality at depths 1
// and 16, and LVP unit behaviour under the paper's configurations. VLT2
// files additionally get a format section: block count, on-wire vs decoded
// bytes, and the trace.v2.* decode counters.
//
// The file is processed in one streaming pass: every table's accumulator
// consumes each batch of records as it is decoded, so summarising a
// multi-gigabyte trace needs O(1) memory.
//
// Usage:
//
//	traceinfo grep.ppc.vlt
//	traceinfo grep.ppc.vlt2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lvp/internal/isa"
	"lvp/internal/locality"
	"lvp/internal/lvp"
	"lvp/internal/obs"
	"lvp/internal/report"
	"lvp/internal/stats"
	"lvp/internal/trace"
	"lvp/internal/version"
)

func main() {
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("traceinfo"))
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceinfo <file.vlt>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	sr, err := trace.OpenFile(f)
	if err != nil {
		fatal(err)
	}
	reg := obs.NewRegistry()
	type metered interface{ SetMetrics(*obs.Registry) }
	if m, ok := sr.(metered); ok {
		m.SetMetrics(reg)
	}

	// One pass, every accumulator fed per decoded batch.
	z := trace.NewSummarizer(sr.Name(), sr.Target())
	meter := locality.NewMeter(locality.DefaultEntries, 1, 16)
	anns := make([]*lvp.Annotator, len(lvp.Configs))
	for i, cfg := range lvp.Configs {
		if anns[i], err = lvp.NewAnnotator(cfg, nil); err != nil {
			fatal(err)
		}
	}
	buf := make([]trace.Record, 1024)
	states := make([]trace.PredState, len(buf))
	for {
		n, err := sr.NextBatch(buf)
		for i := range buf[:n] {
			z.Add(&buf[i])
			meter.Add(&buf[i])
		}
		for _, a := range anns {
			a.RecordBatch(buf[:n], states)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
	}
	sum := z.Summary()

	mix := report.Table{
		Title:   fmt.Sprintf("Trace %s/%s", sr.Name(), sr.Target()),
		Columns: []string{"Metric", "Value"},
	}
	mix.AddRow("instructions", sum.Instructions)
	mix.AddRow("loads", sum.Loads)
	mix.AddRow("stores", sum.Stores)
	mix.AddRow("branches", sum.Branches)
	mix.AddRow("cond taken rate", stats.Pct(sum.TakenRate, 1))
	for c := isa.LoadClass(1); c < isa.NumLoadClasses; c++ {
		mix.AddRow("loads: "+c.String(), sum.LoadsByClass[c])
	}
	mix.Render(os.Stdout)

	// VLT2 files carry a block index; surface its shape and the decode
	// counters the reader accumulated during the pass.
	if ir, ok := sr.(*trace.IndexedReader); ok {
		snap := reg.Snapshot()
		ft := report.Table{
			Title:   "VLT2 layout",
			Columns: []string{"Metric", "Value"},
		}
		ft.AddRow("blocks", ir.Blocks())
		ft.AddRow("block bytes (wire)", ir.WireBytes())
		ft.AddRow("bytes decoded (raw)", snap.Counters["trace.v2.bytes.raw"])
		ft.AddRow("bytes read (compressed)", snap.Counters["trace.v2.bytes.compressed"])
		ft.AddRow("records decoded", snap.Counters["trace.v2.records"])
		ft.Render(os.Stdout)
	}

	lt := report.Table{
		Title:   "Value locality",
		Columns: []string{"Depth", "Overall", "FP", "Int", "InstAddr", "DataAddr"},
	}
	for _, r := range meter.Results() {
		lt.AddRow(r.Depth,
			stats.Pct(r.Overall.Percent()/100, 1),
			stats.Pct(r.ByClass[isa.LoadFPData].Percent()/100, 1),
			stats.Pct(r.ByClass[isa.LoadIntData].Percent()/100, 1),
			stats.Pct(r.ByClass[isa.LoadInstAddr].Percent()/100, 1),
			stats.Pct(r.ByClass[isa.LoadDataAddr].Percent()/100, 1))
	}
	lt.Render(os.Stdout)

	ut := report.Table{
		Title:   "LVP unit behaviour",
		Columns: []string{"Config", "Coverage", "Accuracy", "Constants"},
	}
	for i, cfg := range lvp.Configs {
		st := anns[i].Stats()
		ut.AddRow(cfg.Name, stats.Pct(st.Coverage(), 1),
			stats.Pct(st.Accuracy(), 1), stats.Pct(st.ConstantRate(), 1))
	}
	ut.Render(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceinfo:", err)
	os.Exit(1)
}
