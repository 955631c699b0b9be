package main

// metric is one reported quantity. BENCHMARK.json lists the same metrics;
// TestSpecMatchesBenchmarkJSON keeps the two in step.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the products sees, reported for every
// workload as the median over the untraced passes of a run. The timing
// bounds are wide because whole runs of the same code drift by up to a
// quarter on the shared 2-CPU host they were measured on (README.md,
// "Spreads"); set-up time keeps the widest bound. Memory repeats within a
// few percent.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.24},
	{"cpu_s", "s", "lower", 0.24},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer are the metrics of single layers, reported from the traced run.
// A layer a workload does not use reads 0. README.md maps each one to the
// end-to-end metric and workload it should move.
var perLayer = func() []metric {
	ms := []metric{
		{"vm.busy_s", "s", "lower", 0},
		{"vm.ns_per_rec", "ns/rec", "lower", 0},
		{"trace.encode_ns_per_rec", "ns/rec", "lower", 0},
		{"trace.decode_ns_per_rec", "ns/rec", "lower", 0},
		{"trace.bytes_per_rec", "B/rec", "lower", 0},
		{"lvp.annotate_busy_s", "s", "lower", 0},
		{"lvp.annotate_ns_per_load", "ns/load", "lower", 0},
		{"lvp.zoo_busy_s", "s", "lower", 0},
		{"lvp.cvu_hit_ratio", "ratio", "higher", 0},
		{"lvp.lvpt_hit_ratio", "ratio", "higher", 0},
		{"ppc620.busy_s", "s", "lower", 0},
		{"ppc620.ns_per_inst", "ns/inst", "lower", 0},
		{"ppc620.sim_ipc", "inst/cycle", "higher", 0},
		{"axp21164.busy_s", "s", "lower", 0},
		{"axp21164.ns_per_inst", "ns/inst", "lower", 0},
		{"axp21164.sim_ipc", "inst/cycle", "higher", 0},
		{"exp.unattributed_s", "s", "lower", 0},
		{"exp.cache_hit_ratio", "ratio", "higher", 0},
		{"exp.paper_speedup_mae", "ratio", "lower", 0},
	}
	for _, name := range experimentNames() {
		ms = append(ms, metric{"exp." + name + ".wall_s", "s", "lower", 0})
	}
	return append(ms, []metric{
		{"par.utilization", "ratio", "higher", 0},
		{"par.speedup", "ratio", "higher", 0},
		{"serve.job_ms_p50", "ms", "lower", 0},
		{"serve.job_ms_p99", "ms", "lower", 0},
		{"serve.submit_ms_p50", "ms", "lower", 0},
		{"serve.queue_wait_ms_p99", "ms", "lower", 0},
		{"serve.job_wall_ms_p50", "ms", "lower", 0},
		{"serve.job_wall_ms_p99", "ms", "lower", 0},
		{"serve.client_overhead_ms_p50", "ms", "lower", 0},
		{"go.alloc_mb", "MB", "lower", 0},
		{"go.gc_cpu_frac", "ratio", "lower", 0},
		{"go.gc_cycles", "count", "lower", 0},
		{"obs.trace_overhead_frac", "ratio", "lower", 0},
	}...)
}()
