package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the smoke
// test launches it with -pass, exactly as the benchmark launches itself.
func TestMain(m *testing.M) {
	flag.Parse()
	if *passFlag != "" {
		if err := childMain(*passFlag); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark pass:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// smallWorkloads are the four workloads cut down to a fraction of a second
// per pass; only the inputs shrink, every pass takes the workload's own path.
func smallWorkloads(t *testing.T) []workload {
	var out []workload
	for _, w := range workloads {
		switch w.Kind {
		case kindExperiments:
			w.Experiments = []string{"table1", "table2"}
			if w.Name == "predict-s4" {
				w.Scale, w.Experiments = 1, []string{"table2", "table5"}
			}
		case kindTraceIO:
			w.Scale, w.Benchmarks = 1, []string{"quick"}
		case kindServe:
			w.Scales, w.Benchmarks, w.Jobs = []int{1}, []string{"quick"}, 6
		default:
			t.Fatalf("no small version of %s", w.Name)
		}
		out = append(out, w)
	}
	return out
}

// TestSmokeAllWorkloads runs every workload at reduced size through the
// traced run, which also makes the untraced passes the end-to-end metrics
// come from, and checks the result lines the benchmark would print.
func TestSmokeAllWorkloads(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	env := runEnv{exe: exe, seed: 3, seconds: 0, workers: 2, out: t.TempDir()}
	for _, w := range smallWorkloads(t) {
		res, err := env.runWorkload(t.Context(), w, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.correct() {
			t.Errorf("%s: %d of %d ops failed: %v", w.Name, res.failed, res.attempted, res.problems)
		}
		if len(res.passes) != 2 || len(res.traced) != 1 || (res.serial != nil) != (w.Kind == kindExperiments) {
			t.Errorf("%s: %d untraced, %d traced passes, serial %v", w.Name, len(res.passes), len(res.traced), res.serial != nil)
		}
		set := [][]*runResult{{res}}
		e2e := summary(set, false)
		if len(e2e.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(e2e.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := e2e.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.Name, m.Name, v, m.Unit)
			}
		}
		layers := summary(set, true)
		for _, m := range perLayer {
			if _, ok := layers.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, m.Name)
			}
		}
		if len(layers.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(layers.Metrics), len(perLayer))
		}
		if _, err := os.Stat(filepath.Join(env.out, w.Name+".spans.jsonl")); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
		res.print(io.Discard, true)
		printStability(io.Discard, [][]*runResult{{res}, {res}})
	}
}

// A pass whose output digest differs from the others counts every one of
// its ops as failed.
func TestCheckCountsDigestMismatch(t *testing.T) {
	pass := func(digest string, ops, failed int) passOut {
		return passOut{passResult: &passResult{Digest: digest, OpsMS: make([]float64, ops), Failed: failed}}
	}
	res := &runResult{all: []passOut{pass("a", 4, 0), pass("a", 4, 1), pass("b", 4, 0)}}
	res.check()
	if res.attempted != 12 || res.failed != 5 || res.correct() {
		t.Errorf("attempted %d, failed %d, correct %v; want 12, 5, false", res.attempted, res.failed, res.correct())
	}
}
