package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"lvp/internal/bench"
	"lvp/internal/obs"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// traceIOPass writes each benchmark's trace from the VM straight into a VLT2
// flate file (what tracegen -stream -format vlt2 -codec flate does), reads
// it back through trace.OpenFile (what traceinfo does), and checks that both
// sides saw the same records. One op is one trace written and read back. It
// runs on one goroutine.
func traceIOPass(a passArgs, tracer *obs.Tracer, r *passResult) error {
	benches, err := a.Workload.benchmarks()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(a.Out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(a.Out, "trace-io-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	if tracer != nil {
		ctx = obs.WithTrace(ctx, obs.NewTraceID(), tracer, nil)
	}
	x := &traceIO{timed: tracer != nil, buf: make([]trace.Record, 1024)}
	digest := sha256.New()
	r.begin()
	for _, b := range benches {
		for _, tg := range prog.Targets {
			start := time.Now()
			err := x.roundTrip(ctx, dir, b, tg, a.Workload.Scale, digest)
			r.op(time.Since(start), err)
		}
	}
	r.end()
	r.Digest = hex.EncodeToString(digest.Sum(nil))

	recs := float64(x.records)
	r.Layers["vm.busy_s"] = x.vm.Seconds()
	r.Layers["vm.ns_per_rec"] = ratio(float64(x.vm), recs)
	r.Layers["trace.encode_ns_per_rec"] = ratio(float64(x.enc), recs)
	r.Layers["trace.decode_ns_per_rec"] = ratio(float64(x.dec), recs)
	r.Layers["trace.bytes_per_rec"] = ratio(float64(x.bytes), recs)
	r.BusyS = (x.vm + x.enc + x.dec).Seconds()
	return nil
}

// traceIO carries the trace-io pass's record buffer and totals across ops.
type traceIO struct {
	// timed times every layer call; only traced passes do.
	timed          bool
	buf            []trace.Record
	records, bytes int64
	vm, enc, dec   time.Duration
}

// lap charges the time since *t to *acc (nil charges no layer) and moves *t
// on. It does nothing in an untimed pass.
func (x *traceIO) lap(t *time.Time, acc *time.Duration) {
	if !x.timed {
		return
	}
	now := time.Now()
	if acc != nil {
		*acc += now.Sub(*t)
	}
	*t = now
}

// side is what one side of a round trip saw.
type side struct {
	count uint64
	hash  uint64
	sum   trace.Summary
}

// add folds records into the side: the trace.Summarizer counts, plus an
// FNV-1a style hash of each record's PC, address, value and opcode, which
// the summary does not cover.
func (s *side) add(z *trace.Summarizer, recs []trace.Record) {
	const prime = 1099511628211
	h := s.hash
	for i := range recs {
		r := &recs[i]
		z.Add(r)
		h = (h ^ r.PC) * prime
		h = (h ^ r.Addr) * prime
		h = (h ^ r.Value) * prime
		h = (h ^ uint64(r.Op)) * prime
	}
	s.hash = h
	s.count += uint64(len(recs))
}

// roundTrip writes and reads back one trace and compares the two sides.
func (x *traceIO) roundTrip(ctx context.Context, dir string, b bench.Benchmark, tg prog.Target, scale int, digest io.Writer) error {
	name := b.Name + "/" + tg.Name
	p, err := b.Build(tg, scale)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, b.Name+"."+tg.Name+".vlt2")
	attrs := []slog.Attr{slog.String("bench", b.Name), slog.String("target", tg.Name)}
	_, endWrite := obs.StartSpan(ctx, "write", attrs...)
	wrote, err := x.write(path, p)
	endWrite()
	if err != nil {
		return fmt.Errorf("%s: write: %w", name, err)
	}
	_, endRead := obs.StartSpan(ctx, "read", attrs...)
	read, err := x.read(path)
	endRead()
	if err != nil {
		return fmt.Errorf("%s: read: %w", name, err)
	}
	if read != wrote {
		return fmt.Errorf("%s: read back %d records (hash %x, %v), wrote %d (hash %x, %v)",
			name, read.count, read.hash, read.sum, wrote.count, wrote.hash, wrote.sum)
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	x.records += int64(wrote.count)
	x.bytes += st.Size()
	fmt.Fprintf(digest, "%s %d %d %x\n", name, wrote.count, st.Size(), wrote.hash)
	return os.Remove(path)
}

func (x *traceIO) write(path string, p *prog.Program) (side, error) {
	f, err := os.Create(path)
	if err != nil {
		return side{}, err
	}
	defer f.Close() // error paths; the success path checks Close below
	t := time.Now()
	src := vm.NewSource(p, 0)
	x.lap(&t, &x.vm)
	w, err := trace.NewWriter2Opts(f, p.Name, p.Target.Name, trace.Writer2Options{Codec: trace.CodecFlate})
	x.lap(&t, &x.enc)
	if err != nil {
		return side{}, err
	}
	z := trace.NewSummarizer(p.Name, p.Target.Name)
	var s side
	for {
		n, err := src.NextBatch(x.buf)
		x.lap(&t, &x.vm)
		for i := range n {
			if err := w.WriteRecord(&x.buf[i]); err != nil {
				return side{}, err
			}
		}
		x.lap(&t, &x.enc)
		s.add(z, x.buf[:n])
		x.lap(&t, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return side{}, err
		}
	}
	err = w.Close()
	x.lap(&t, &x.enc)
	if err != nil {
		return side{}, err
	}
	if err := f.Close(); err != nil {
		return side{}, err
	}
	s.sum = z.Summary()
	return s, nil
}

func (x *traceIO) read(path string) (side, error) {
	t := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return side{}, err
	}
	defer f.Close()
	d, err := trace.OpenFile(f)
	if err != nil {
		return side{}, err
	}
	if c, ok := d.(io.Closer); ok {
		defer c.Close()
	}
	z := trace.NewSummarizer(d.Name(), d.Target())
	var s side
	x.lap(&t, &x.dec)
	for {
		n, err := d.NextBatch(x.buf)
		x.lap(&t, &x.dec)
		s.add(z, x.buf[:n])
		x.lap(&t, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return side{}, err
		}
	}
	if d.Decoded() != s.count {
		return side{}, fmt.Errorf("decoder reports %d records, delivered %d", d.Decoded(), s.count)
	}
	s.sum = z.Summary()
	return s, nil
}
