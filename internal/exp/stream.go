package exp

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"lvp/internal/axp21164"
	"lvp/internal/bench"
	"lvp/internal/lvp"
	"lvp/internal/obs"
	"lvp/internal/ppc620"
	"lvp/internal/prog"
	"lvp/internal/trace"
	"lvp/internal/vm"
)

// Streaming cells: the full gen → annotate → sim pipeline for one benchmark
// cell runs as a single pull-driven pass, so memory is bounded by the
// machine model's window instead of the trace length. The streaming and
// in-memory paths share every stage's implementation (vm.Source behind
// vm.Run, lvp.Annotator behind lvp.Annotate, the models' Source cores behind
// Simulate), so their stats are identical — the differential tests in this
// package enforce that on every workload.
//
// Streamed cells bypass the trace/annotation caches by construction (there
// is no materialized trace to share); the per-machine stats caches still
// memoize the final result. Record throughput is reported on the
// trace.stream.records counter and completed cells on trace.stream.cells.

// meteredSource counts records flowing out of a source, flushing the count
// into the registry counter when the stream drains (one atomic add per
// cell, keeping the per-record path free of shared-counter traffic).
type meteredSource struct {
	src trace.Source
	n   int64
	c   *obs.Counter
}

func (m *meteredSource) Next() (*trace.Record, error) {
	r, err := m.src.Next()
	if err == nil {
		m.n++
	} else if err == io.EOF {
		m.c.Add(m.n)
		m.n = 0
	}
	return r, err
}

// meteredBatchSource is meteredSource over a batch-capable inner source:
// one count update per batch, flushed on EOF exactly like the per-record
// form, so the batched pipeline keeps its telemetry without touching the
// shared counter per record.
type meteredBatchSource struct {
	meteredSource
	bs trace.BatchSource
}

func (m *meteredBatchSource) NextBatch(buf []trace.Record) (int, error) {
	n, err := m.bs.NextBatch(buf)
	m.n += int64(n)
	if err == io.EOF || (err == nil && n == 0) {
		m.c.Add(m.n)
		m.n = 0
	}
	return n, err
}

// meter wraps src with record counting, preserving batch capability.
func meter(src trace.Source, c *obs.Counter) trace.Source {
	ms := meteredSource{src: src, c: c}
	if bs, ok := src.(trace.BatchSource); ok {
		return &meteredBatchSource{ms, bs}
	}
	return &ms
}

// streamSource builds the gen → annotate front half of a streaming cell:
// a functional-VM record source for one benchmark/target, annotated on the
// fly by an LVP unit under cfg (nil = no LVP hardware).
func (s *Suite) streamSource(name string, target prog.Target, cfg *lvp.Config) (trace.AnnotatedSource, error) {
	bm, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	p, err := bm.Build(target, s.Scale)
	if err != nil {
		return nil, fmt.Errorf("exp: building %s/%s: %w", name, target.Name, err)
	}
	src := meter(vm.NewSource(p, s.MaxSteps), s.Metrics.Counter("trace.stream.records"))
	if cfg == nil {
		return trace.NoLVP(src), nil
	}
	pipe, err := lvp.NewPipe(src, *cfg, s.Tracer)
	if err != nil {
		return nil, fmt.Errorf("exp: annotating %s/%s: %w", name, target.Name, err)
	}
	return pipe, nil
}

// StreamSim620 runs one benchmark cell gen → annotate → sim on the 620
// (plus=false) or 620+ in bounded memory: no trace or annotation is ever
// materialized. cfg == nil means no LVP hardware. Stats are identical to
// Sim620's for the same cell.
func (s *Suite) StreamSim620(name string, plus bool, cfg *lvp.Config) (ppc620.Stats, error) {
	if err := s.context().Err(); err != nil {
		return ppc620.Stats{}, err
	}
	src, err := s.streamSource(name, prog.PPC, cfg)
	if err != nil {
		return ppc620.Stats{}, err
	}
	mc := ppc620.Config620()
	if plus {
		mc = ppc620.Config620Plus()
	}
	cfgName := lvpLabel(cfg)
	start := time.Now()
	st, err := ppc620.SimulateSourceObs(src, mc, cfgName, s.Tracer)
	if err != nil {
		return ppc620.Stats{}, fmt.Errorf("exp: streaming %s/%s: %w", name, mc.Name, err)
	}
	s.record620Stats(st)
	s.Metrics.Counter("trace.stream.cells").Inc()
	s.finishPhase("stream620", start,
		slog.String("bench", name), slog.String("machine", mc.Name),
		slog.String("config", cfgName))
	return st, nil
}

// StreamSim21164 runs one benchmark cell gen → annotate → sim on the 21164
// in bounded memory (nil cfg = no LVP hardware). Stats are identical to
// Sim21164's for the same cell.
func (s *Suite) StreamSim21164(name string, cfg *lvp.Config) (axp21164.Stats, error) {
	if err := s.context().Err(); err != nil {
		return axp21164.Stats{}, err
	}
	src, err := s.streamSource(name, prog.AXP, cfg)
	if err != nil {
		return axp21164.Stats{}, err
	}
	cfgName := lvpLabel(cfg)
	start := time.Now()
	st, err := axp21164.SimulateSourceObs(src, axp21164.Config21164(), cfgName, s.Tracer)
	if err != nil {
		return axp21164.Stats{}, fmt.Errorf("exp: streaming %s/21164: %w", name, err)
	}
	s.record164Stats(st)
	s.Metrics.Counter("trace.stream.cells").Inc()
	s.finishPhase("stream21164", start,
		slog.String("bench", name), slog.String("config", cfgName))
	return st, nil
}
