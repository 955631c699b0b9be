// Command vltconv converts a trace file — VLT1 or VLT2, auto-detected from
// its magic bytes — to VLT2 with the chosen block codec and block size,
// streaming record by record so traces of any size convert in bounded
// memory. -verify re-reads both files afterwards and checks
// record-for-record equality.
//
// Usage:
//
//	vltconv -o grep.ppc.vlt2 grep.ppc.vlt                 # VLT1 → VLT2 (raw blocks)
//	vltconv -codec flate -o grep.small.vlt2 grep.ppc.vlt  # compressed blocks
//	vltconv -verify -block-records 1024 -o g.vlt2 grep.ppc.vlt2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lvp/internal/trace"
	"lvp/internal/version"
)

func main() {
	var (
		out         = flag.String("o", "", "output file (required)")
		codecName   = flag.String("codec", "raw", "block codec: raw or flate")
		blockRecs   = flag.Int("block-records", 0, "records per block (0 = default)")
		verify      = flag.Bool("verify", false, "re-read input and output and verify record equality")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("vltconv"))
		return
	}
	if flag.NArg() != 1 || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: vltconv -o <out> [-codec raw|flate] [-block-records n] [-verify] <in>")
		os.Exit(2)
	}
	in := flag.Arg(0)
	codec, err := trace.BlockCodecByName(*codecName)
	if err != nil {
		fatal(err)
	}

	n, err := convert(in, *out, trace.Writer2Options{Codec: codec, BlockRecords: *blockRecs})
	if err != nil {
		fatal(err)
	}
	inSize, outSize := fileSize(in), fileSize(*out)
	fmt.Printf("wrote %s: %d records, %d → %d bytes (%.1f%%)\n",
		*out, n, inSize, outSize, 100*float64(outSize)/float64(max(inSize, 1)))

	if *verify {
		if err := verifyEqual(in, *out); err != nil {
			fatal(err)
		}
		fmt.Println("verify: records identical")
	}
}

// openTrace opens path through trace.OpenFile. The returned closer releases
// the decoder (unmapping a VLT2 file) and then the file.
func openTrace(path string) (trace.Decoder, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	d, err := trace.OpenFile(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return d, func() {
		if c, ok := d.(io.Closer); ok {
			c.Close()
		}
		f.Close()
	}, nil
}

// convert streams every record of in into a new VLT2 file at out, returning
// the record count.
func convert(in, out string, opts trace.Writer2Options) (uint64, error) {
	src, done, err := openTrace(in)
	if err != nil {
		return 0, err
	}
	defer done()
	fo, err := os.Create(out)
	if err != nil {
		return 0, err
	}
	enc, err := trace.NewWriter2Opts(fo, src.Name(), src.Target(), opts)
	if err != nil {
		fo.Close()
		return 0, err
	}
	err = copyRecords(enc, src)
	// Close the writer even after an error: it stops the writer's helper
	// goroutine, which must not outlive fo.
	if cerr := enc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fo.Close()
		return 0, err
	}
	return enc.Count(), fo.Close()
}

// copyRecords writes every record of src to enc and returns the first read
// or write error.
func copyRecords(enc *trace.Writer2, src trace.Decoder) error {
	buf := make([]trace.Record, 4096)
	for {
		k, err := src.NextBatch(buf)
		for i := 0; i < k; i++ {
			if werr := enc.WriteRecord(&buf[i]); werr != nil {
				return werr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// verifyEqual streams both files in lockstep and reports the first
// divergence.
func verifyEqual(a, b string) error {
	da, doneA, err := openTrace(a)
	if err != nil {
		return err
	}
	defer doneA()
	db, doneB, err := openTrace(b)
	if err != nil {
		return err
	}
	defer doneB()
	bufA, bufB := make([]trace.Record, 4096), make([]trace.Record, 4096)
	var n uint64
	for {
		ka, ea := fill(da, bufA)
		kb, eb := fill(db, bufB)
		for i := range min(ka, kb) {
			if bufA[i] != bufB[i] {
				return fmt.Errorf("verify: record %d differs:\n  %s: %+v\n  %s: %+v", n+uint64(i), a, bufA[i], b, bufB[i])
			}
		}
		n += uint64(min(ka, kb))
		if ea != nil && ea != io.EOF {
			return ea
		}
		if eb != nil && eb != io.EOF {
			return eb
		}
		if ka != kb {
			return fmt.Errorf("verify: record counts differ: one file ends at record %d", n)
		}
		if ea == io.EOF {
			return nil
		}
	}
}

// fill reads from d until buf is full or the stream ends, and returns the
// record count and the terminal error (io.EOF at the end of the stream).
func fill(d trace.Decoder, buf []trace.Record) (int, error) {
	n := 0
	for n < len(buf) {
		k, err := d.NextBatch(buf[n:])
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vltconv:", err)
	os.Exit(1)
}
