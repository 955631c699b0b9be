package main

import (
	"fmt"
	"math/rand/v2"

	"lvp/internal/bench"
	"lvp/internal/exp"
	"lvp/internal/lvp"
	"lvp/internal/prog"
	"lvp/internal/serve"
)

// Workload kinds: which product a pass drives.
const (
	kindExperiments = "experiments" // exp.Experiment.Run on a fresh Suite, as lvpsim does
	kindTraceIO     = "trace-io"    // tracegen -stream -format vlt2 -codec flate, then traceinfo
	kindServe       = "serve"       // an in-process lvpd fed by closed-loop clients
)

// workload is one set of inputs the benchmark runs. A pass executes the whole
// workload once, in a fresh process. The definition travels to the pass
// process as JSON, so a reduced copy (the smoke test) takes the same path.
type workload struct {
	Name string `json:"name"`
	// Why is the reason the workload is in the benchmark (BENCHMARK.json).
	Why  string `json:"-"`
	Kind string `json:"kind"`
	// Scale is the benchmark run-length multiplier (experiments, trace-io).
	Scale int `json:"scale,omitempty"`
	// Experiments are run in this order on one suite.
	Experiments []string `json:"experiments,omitempty"`
	// Benchmarks restricts trace-io and serve to these benchmarks; empty
	// selects all 17.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Scales and Jobs shape the serve traffic: jobs per pass at these
	// scales.
	Scales []int `json:"scales,omitempty"`
	Jobs   int   `json:"jobs,omitempty"`
}

// predictExperiments are the locality and predictor experiments: they use
// the LVP unit, the zoo and the locality meters, and no machine model.
var predictExperiments = []string{
	"fig1", "fig2", "table3", "table4", "lvptsweep", "lctsweep",
	"cvusweep", "predictors", "zoosweep", "gvl", "pathlvp",
}

func experimentNames() []string {
	var names []string
	for _, e := range exp.Experiments() {
		names = append(names, e.Name)
	}
	return names
}

// workloads lists the benchmark's workloads in reporting order.
var workloads = []workload{
	{
		Name:        "paper-all",
		Why:         "lvpsim -exp all, the headline product: the 620 model and LVP annotation do most of the work and the worker pool and caches are busy; no trace files, no HTTP",
		Kind:        kindExperiments,
		Scale:       1,
		Experiments: experimentNames(),
	},
	{
		Name:        "predict-s4",
		Why:         "the 11 locality and predictor experiments at scale 4: LVP, zoo and locality work with no machine model, over a 3x larger materialized working set",
		Kind:        kindExperiments,
		Scale:       4,
		Experiments: predictExperiments,
	},
	{
		Name:  "trace-io-s4",
		Why:   "tracegen then traceinfo for 17 benchmarks x 2 targets at scale 4 in VLT2 flate: the only workload where the VM stream and the trace codecs matter",
		Kind:  kindTraceIO,
		Scale: 4,
	},
	{
		Name:   "serve-mix",
		Why:    "an in-process lvpd fed 1000 seeded jobs by 2 closed-loop clients: cold cells mixed with repeats served from the suite caches over HTTP and NDJSON",
		Kind:   kindServe,
		Scales: []int{1, 2},
		Jobs:   1000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// benchmarks resolves the workload's benchmark selection.
func (w workload) benchmarks() ([]bench.Benchmark, error) {
	if len(w.Benchmarks) == 0 {
		return bench.All(), nil
	}
	out := make([]bench.Benchmark, len(w.Benchmarks))
	for i, name := range w.Benchmarks {
		b, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// jobCatalogue lists every distinct serve job: for each benchmark and scale,
// one simulation job per machine and LVP configuration (the machine without
// LVP next to it), one zoo job per pair of predictor families, and one
// locality job over both targets at depths 1 and 16.
func jobCatalogue(w workload) ([]serve.JobSpec, error) {
	benches, err := w.benchmarks()
	if err != nil {
		return nil, err
	}
	sims := []struct {
		machine string
		configs []lvp.Config
	}{
		{serve.Machine620, exp.PPCConfigs},
		{serve.Machine620Plus, exp.PPCConfigs},
		{serve.Machine21164, exp.AXPConfigs},
	}
	fams := lvp.Families()
	var cat []serve.JobSpec
	for _, b := range benches {
		for _, scale := range w.Scales {
			for _, sim := range sims {
				for _, cfg := range sim.configs {
					cat = append(cat, serve.JobSpec{
						Benchmarks: []string{b.Name},
						Machines:   []string{sim.machine},
						Configs:    []string{serve.ConfigNone, cfg.Name},
						Scale:      scale,
					})
				}
			}
			for i := 0; i+1 < len(fams); i += 2 {
				cat = append(cat, serve.JobSpec{
					Benchmarks: []string{b.Name},
					Predictors: []string{fams[i].Name, fams[i+1].Name},
					Scale:      scale,
				})
			}
			cat = append(cat, serve.JobSpec{
				Benchmarks:      []string{b.Name},
				LocalityTargets: []string{prog.PPC.Name, prog.AXP.Name},
				LocalityDepths:  []int{1, 16},
				Scale:           scale,
			})
		}
	}
	return cat, nil
}

// genJobs draws one pass's jobs from the catalogue. When the pass has room,
// every catalogue job appears at least once and the rest are seeded repeats,
// so each pass builds the same cells whatever the seed: the seed changes the
// order and which jobs repeat (and are served from the suite caches), not
// the amount of cold work. The same seed gives the same jobs.
func genJobs(seed int64, w workload) ([]serve.JobSpec, error) {
	cat, err := jobCatalogue(w)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6c7670))
	shuffle := func(js []serve.JobSpec) {
		rng.Shuffle(len(js), func(i, j int) { js[i], js[j] = js[j], js[i] })
	}
	if w.Jobs <= len(cat) {
		shuffle(cat)
		return cat[:w.Jobs], nil
	}
	jobs := append(make([]serve.JobSpec, 0, w.Jobs), cat...)
	for len(jobs) < w.Jobs {
		jobs = append(jobs, cat[rng.IntN(len(cat))])
	}
	shuffle(jobs)
	return jobs, nil
}
