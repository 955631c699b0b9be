// Command lvpdump disassembles a built benchmark (or an assembled .s file):
// the code listing with labels resolved, plus the data-symbol map. A
// debugging aid for workload authors. With -trace it instead dumps the
// records of a trace file (VLT1 or VLT2, auto-detected) through the
// streaming reader, so arbitrarily large traces dump in O(1) memory; on
// VLT2 files -seek jumps straight to record N through the block index
// instead of decoding up to it.
//
// Usage:
//
//	lvpdump -bench grep -target ppc | less
//	lvpdump -asm prog.s
//	lvpdump -trace grep.ppc.vlt2 | head
//	lvpdump -trace grep.ppc.vlt2 -seek 1000000 -n 20
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"lvp/internal/asm"
	"lvp/internal/bench"
	"lvp/internal/isa"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/version"
)

func main() {
	var (
		benchName   = flag.String("bench", "", "benchmark to dump")
		asmFile     = flag.String("asm", "", "assembly file to dump instead")
		traceFile   = flag.String("trace", "", "trace file to dump records from (vlt1 or vlt2, streaming)")
		seek        = flag.Uint64("seek", 0, "start dumping at this record (O(1) on vlt2 files)")
		count       = flag.Int64("n", -1, "dump at most this many records (-1 = all)")
		target      = flag.String("target", "ppc", "codegen target: ppc or axp")
		scale       = flag.Int("scale", 1, "benchmark scale")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("lvpdump"))
		return
	}

	if *traceFile != "" {
		if err := dumpTrace(*traceFile, *seek, *count); err != nil {
			fatal(err)
		}
		return
	}

	tg, err := prog.TargetByName(*target)
	if err != nil {
		fatal(err)
	}
	var p *prog.Program
	switch {
	case *asmFile != "":
		src, err := os.ReadFile(*asmFile)
		if err != nil {
			fatal(err)
		}
		if p, err = asm.Assemble(*asmFile, string(src), tg); err != nil {
			fatal(err)
		}
	case *benchName != "":
		b, err := bench.ByName(*benchName)
		if err != nil {
			fatal(err)
		}
		if p, err = b.Build(tg, *scale); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "lvpdump: need -bench or -asm")
		os.Exit(2)
	}

	// Invert the label map for listing.
	labelsAt := map[uint64][]string{}
	for name, pc := range p.Funcs {
		labelsAt[pc] = append(labelsAt[pc], name)
	}
	for _, names := range labelsAt {
		sort.Strings(names)
	}

	fmt.Printf("; program %s (%s target), %d instructions, %d data bytes\n\n",
		p.Name, p.Target.Name, len(p.Code), dataSize(p))
	for i, in := range p.Code {
		pc := prog.CodeBase + uint64(i)*isa.InstBytes
		for _, l := range labelsAt[pc] {
			fmt.Printf("%s:\n", l)
		}
		fmt.Printf("  %06x:  %s\n", pc, in.String())
	}

	fmt.Printf("\n; data symbols\n")
	type sym struct {
		name string
		addr uint64
	}
	var syms []sym
	for name, addr := range p.Symbols {
		syms = append(syms, sym{name, addr})
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].addr < syms[j].addr })
	for _, s := range syms {
		fmt.Printf("  %06x  %s\n", s.addr, s.name)
	}
}

// dumpTrace streams the records of a trace file to stdout, one line per
// record, without materializing the trace. seek skips to that record first
// — via the block index on VLT2 files, by decode-and-discard on VLT1 — and
// n bounds how many records print (-1 = to the end).
func dumpTrace(path string, seek uint64, n int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sr, err := trace.OpenFile(f)
	if err != nil {
		return err
	}
	if c, ok := sr.(io.Closer); ok {
		defer c.Close() // releases a VLT2 mapping before the file closes
	}
	fmt.Printf("; trace %s/%s, %d records\n", sr.Name(), sr.Target(), sr.Count())
	buf := make([]trace.Record, 512)
	if ir, ok := sr.(*trace.IndexedReader); ok {
		if err := ir.SeekRecord(seek); err != nil {
			return err
		}
	} else {
		// The VLT1 header carries the record count, so a seek past the
		// end fails here exactly as SeekRecord fails on VLT2.
		if seek > sr.Count() {
			return fmt.Errorf("trace: seek to record %d beyond count %d", seek, sr.Count())
		}
		for skipped := uint64(0); skipped < seek; {
			k, err := sr.NextBatch(buf[:min(uint64(len(buf)), seek-skipped)])
			skipped += uint64(k)
			if err != nil {
				return err
			}
		}
	}
	for i := int64(0); n < 0 || i < n; {
		want := int64(len(buf))
		if n >= 0 {
			want = min(want, n-i)
		}
		k, err := sr.NextBatch(buf[:want])
		for j := range k {
			r := &buf[j]
			fmt.Printf("%10d  %06x  %-28s", uint64(i)+seek, r.PC, r.Inst().String())
			switch {
			case r.IsLoad():
				fmt.Printf("  addr=%#x val=%#x", r.Addr, r.Value)
			case r.IsStore():
				fmt.Printf("  addr=%#x val=%#x", r.Addr, r.Value)
			case r.IsBranch():
				fmt.Printf("  taken=%t targ=%06x", r.Taken, r.Targ)
			}
			fmt.Println()
			i++
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func dataSize(p *prog.Program) int {
	n := 0
	for _, seg := range p.Data {
		n += len(seg)
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lvpdump:", err)
	os.Exit(1)
}
