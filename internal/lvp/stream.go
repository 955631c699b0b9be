package lvp

import (
	"io"

	"lvp/internal/obs"
	"lvp/internal/trace"
)

// Annotator is the streaming form of Annotate: records are fed in trace
// order, in batches of any size, and each receives its prediction state
// immediately. It is phase 2 of the pipeline without the materialized trace
// — the unit state, classification and CVU discipline are exactly
// Annotate's, because Annotate is implemented on top of it. RecordBatch is
// allocation-free once its gather scratch has grown, so the per-load
// predict/verify path can run inside the fused gen→annotate→sim pipeline at
// full speed.
type Annotator struct {
	u *Unit
	// Gather scratch for RecordBatch: consecutive loads are copied into
	// these parallel slices so Unit.LoadBatch runs over plain arrays. They
	// grow to the longest load run seen and are then reused.
	pcs, addrs, vals []uint64
}

// NewAnnotator returns a streaming annotator for the given configuration;
// tr attaches an event tracer (nil disables tracing).
func NewAnnotator(cfg Config, tr *obs.Tracer) (*Annotator, error) {
	u, err := NewUnit(cfg)
	if err != nil {
		return nil, err
	}
	u.SetTracer(tr)
	return &Annotator{u: u}, nil
}

// RecordBatch processes recs in order, writing each record's state into the
// parallel states slice (len(states) must be at least len(recs)): loads are
// predicted and verified, stores invalidate the CVU, and everything else
// passes through as PredNone. Runs of consecutive loads are gathered into
// parallel operand slices and handed to Unit.LoadBatch (whose states land
// contiguously back in states); stores and other records are handled in
// place. Trace order — and with it the CVU invalidation discipline — is
// preserved exactly, so any split of a trace into batches yields the same
// states and statistics.
func (a *Annotator) RecordBatch(recs []trace.Record, states []trace.PredState) {
	u := a.u
	for i := 0; i < len(recs); {
		r := &recs[i]
		if !r.IsLoad() {
			if r.IsStore() {
				u.Store(r.Addr, int(r.Size))
			}
			states[i] = trace.PredNone
			i++
			continue
		}
		j := i + 1
		for j < len(recs) && recs[j].IsLoad() {
			j++
		}
		a.pcs, a.addrs, a.vals = a.pcs[:0], a.addrs[:0], a.vals[:0]
		for k := i; k < j; k++ {
			rk := &recs[k]
			a.pcs = append(a.pcs, rk.PC)
			a.addrs = append(a.addrs, rk.Addr)
			a.vals = append(a.vals, rk.Value)
		}
		u.LoadBatch(a.pcs, a.addrs, a.vals, states[i:j])
		i = j
	}
}

// Stats returns the unit statistics accumulated so far.
func (a *Annotator) Stats() Stats { return a.u.Stats() }

// pipeBatch is Pipe's refill size: large enough to amortize the per-refill
// interface calls to nothing, small enough to stay resident in L1 (256
// records ≈ 20 KiB).
const pipeBatch = 256

// Pipe is the streaming trace.SlabSource: each NextSlab refills a
// pipeBatch-record buffer through src.NextBatch, annotates the refill with
// RecordBatch, and hands records and states downstream as one slab, so a
// record source of any length reaches a timing model in bounded memory.
// Stats is valid once the stream has drained (NextSlab returned io.EOF).
type Pipe struct {
	src    trace.BatchSource
	a      *Annotator
	recs   [pipeBatch]trace.Record
	states [pipeBatch]trace.PredState
	err    error // sticky: the source's error, returned after its records
}

// NewPipe returns an annotated stream over src under cfg; tr attaches an
// event tracer (nil disables tracing).
func NewPipe(src trace.BatchSource, cfg Config, tr *obs.Tracer) (*Pipe, error) {
	a, err := NewAnnotator(cfg, tr)
	if err != nil {
		return nil, err
	}
	return &Pipe{src: src, a: a}, nil
}

// NextSlab returns the next annotated refill (see trace.SlabSource).
func (p *Pipe) NextSlab() ([]trace.Record, []trace.PredState, error) {
	if p.err != nil {
		return nil, nil, p.err
	}
	n, err := p.src.NextBatch(p.recs[:])
	p.err = err
	if n == 0 {
		if err == nil {
			p.err = io.EOF // a (0, nil) source would otherwise spin
		}
		return nil, nil, p.err
	}
	p.a.RecordBatch(p.recs[:n], p.states[:n])
	return p.recs[:n], p.states[:n], nil
}

// Stats returns the unit statistics accumulated so far.
func (p *Pipe) Stats() Stats { return p.a.Stats() }
