package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"time"

	"lvp/internal/exp"
	"lvp/internal/obs"
	"lvp/internal/par"
)

// passArgs is what the parent hands a pass process (as JSON in -pass).
type passArgs struct {
	Workload workload `json:"workload"`
	Seed     int64    `json:"seed"`
	Workers  int      `json:"workers"`
	Traced   bool     `json:"traced"`
	Out      string   `json:"out"`
}

// passResult is what a pass process reports on its standard output. Every
// time in it is taken by the pass around public calls into the program, or
// read from telemetry the program already exposes.
type passResult struct {
	// TimedStartNS is the wall clock at the start of the timed section; the
	// parent subtracts its launch time to get setup_s.
	TimedStartNS int64   `json:"timed_start_ns"`
	WallS        float64 `json:"wall_s"`
	// OpsMS holds each op's latency; its length is the ops attempted.
	OpsMS    []float64 `json:"ops_ms"`
	Failed   int       `json:"failed"`
	Problems []string  `json:"problems,omitempty"`
	// Digest identifies the pass's output; every pass of a workload must
	// agree on it.
	Digest string `json:"digest"`
	// Layers holds the per-layer metrics measured inside the pass.
	Layers map[string]float64 `json:"layers"`
	// BusyS is the summed busy time of the timed layers, the attributed
	// part of cpu_s.
	BusyS     float64    `json:"busy_s"`
	SelfTimes []selfTime `json:"self_times,omitempty"`

	start time.Time
}

// begin marks the start of the timed section.
func (r *passResult) begin() {
	r.start = time.Now()
	r.TimedStartNS = r.start.UnixNano()
}

// end closes the timed section and records the Go runtime's view of it.
func (r *passResult) end() {
	r.WallS = time.Since(r.start).Seconds()
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	r.Layers["go.alloc_mb"] = float64(s[0].Value.Uint64()) / (1 << 20)
	r.Layers["go.gc_cycles"] = float64(s[1].Value.Uint64())
	r.Layers["go.gc_cpu_frac"] = ratio(s[2].Value.Float64(), s[3].Value.Float64())
}

// op records one op's latency and, if it failed, why.
func (r *passResult) op(d time.Duration, err error) {
	r.OpsMS = append(r.OpsMS, float64(d)/1e6)
	if err != nil {
		r.Failed++
		if len(r.Problems) < 10 {
			r.Problems = append(r.Problems, err.Error())
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runPass executes one pass of a.Workload in this process.
func runPass(a passArgs) (*passResult, error) {
	r := &passResult{Layers: map[string]float64{}}
	var spans bytes.Buffer
	var tracer *obs.Tracer
	if a.Traced {
		// The span channel stays in memory until the pass ends.
		tracer = obs.NewTracer(&spans, obs.ChanSpan)
	}
	var err error
	switch a.Workload.Kind {
	case kindExperiments:
		err = experimentsPass(a, tracer, r)
	case kindTraceIO:
		err = traceIOPass(a, tracer, r)
	case kindServe:
		err = servePass(a, tracer, r)
	default:
		err = fmt.Errorf("unknown workload kind %q", a.Workload.Kind)
	}
	if err != nil || tracer == nil {
		return r, err
	}
	all, err := parseSpans(spans.Bytes())
	if err != nil {
		return nil, err
	}
	r.SelfTimes = selfTimes(all)
	if recs := spanRecords(all); recs > 0 {
		r.Layers["vm.ns_per_rec"] = r.Layers["vm.busy_s"] * 1e9 / float64(recs)
	}
	if err := os.MkdirAll(a.Out, 0o755); err != nil {
		return nil, err
	}
	return r, os.WriteFile(filepath.Join(a.Out, a.Workload.Name+".spans.jsonl"), spans.Bytes(), 0o644)
}

// experimentsPass runs the workload's experiments in order on one fresh
// suite, the way lvpsim does, rendering into memory.
func experimentsPass(a passArgs, tracer *obs.Tracer, r *passResult) error {
	byName := map[string]exp.Experiment{}
	for _, e := range exp.Experiments() {
		byName[e.Name] = e
	}
	for _, name := range a.Workload.Experiments {
		if _, ok := byName[name]; !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	s := exp.NewSuiteParallel(a.Workload.Scale, a.Workers)
	ctx := context.Background()
	if tracer != nil {
		ctx = obs.WithTrace(ctx, obs.NewTraceID(), tracer, nil)
	}
	var out bytes.Buffer
	r.begin()
	for _, name := range a.Workload.Experiments {
		ectx, endSpan := obs.StartSpan(ctx, "exp", slog.String("exp", name))
		start := time.Now()
		err := byName[name].Run(s.WithContext(ectx), &out)
		d := time.Since(start)
		endSpan()
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
		r.op(d, err)
		r.Layers["exp."+name+".wall_s"] = d.Seconds()
	}
	r.end()
	sum := sha256.Sum256(out.Bytes())
	r.Digest = hex.EncodeToString(sum[:])

	r.BusyS = engineLayers(r.Layers, s.Metrics.Snapshot())
	var gets, hits int64
	cs := s.CacheStats()
	for _, c := range []par.CacheStats{cs.Traces, cs.Annotations, cs.Sims620, cs.Sims21164} {
		gets += c.Gets
		hits += c.Hits
	}
	r.Layers["exp.cache_hit_ratio"] = ratio(float64(hits), float64(gets))
	if slices.Contains(a.Workload.Experiments, "fig6") && slices.Contains(a.Workload.Experiments, "table6") {
		// Both are cached by now, so this costs no simulation.
		f6, err := s.Figure6()
		if err != nil {
			return err
		}
		t6, err := s.Table6()
		if err != nil {
			return err
		}
		r.Layers["exp.paper_speedup_mae"] = speedupMAE(f6, t6)
	}
	return nil
}

// engineLayers derives the engine's per-layer metrics from a registry
// snapshot (Suite.Metrics, or lvpd's GET /metrics) and returns the summed
// busy time of the timed phases.
func engineLayers(l map[string]float64, snap obs.Snapshot) float64 {
	busy := func(phase string) float64 { return float64(snap.Timers["phase."+phase].TotalNS) / 1e9 }
	count := func(name string) float64 { return float64(snap.Counters[name]) }
	vm, ann, zoo := busy("trace"), busy("annotate"), busy("zoo")
	s620, s164 := busy("sim620"), busy("sim21164")
	l["vm.busy_s"] = vm
	l["lvp.annotate_busy_s"] = ann
	l["lvp.annotate_ns_per_load"] = ratio(ann*1e9, count("lvp.loads"))
	l["lvp.zoo_busy_s"] = zoo
	l["lvp.cvu_hit_ratio"] = ratio(count("cvu.hits"), count("cvu.lookups"))
	l["lvp.lvpt_hit_ratio"] = ratio(count("lvpt.hits"), count("lvpt.lookups"))
	l["ppc620.busy_s"] = s620
	l["ppc620.ns_per_inst"] = ratio(s620*1e9, count("sim620.instructions"))
	l["ppc620.sim_ipc"] = ratio(count("sim620.instructions"), count("sim620.cycles"))
	l["axp21164.busy_s"] = s164
	l["axp21164.ns_per_inst"] = ratio(s164*1e9, count("sim21164.instructions"))
	l["axp21164.sim_ipc"] = ratio(count("sim21164.instructions"), count("sim21164.cycles"))
	return vm + ann + zoo + s620 + s164
}

// childMain is the pass process: it runs one pass and prints its result as
// one JSON line.
func childMain(arg string) error {
	var a passArgs
	if err := json.Unmarshal([]byte(arg), &a); err != nil {
		return fmt.Errorf("bad -pass argument: %w", err)
	}
	r, err := runPass(a)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}
