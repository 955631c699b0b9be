package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

func serveMix(t *testing.T) workload {
	t.Helper()
	w, err := workloadByName("serve-mix")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenJobsSameSeedSameJobs(t *testing.T) {
	w := serveMix(t)
	a, err := genJobs(7, w)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genJobs(7, w)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 gave two different job lists")
	}
	c, _ := genJobs(8, w)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same job list")
	}
	if len(a) != w.Jobs {
		t.Fatalf("%d jobs, want %d", len(a), w.Jobs)
	}
}

// Every generated job must be one lvpd accepts, and a full pass must cover
// the whole catalogue, so the cold work of a pass does not depend on the
// seed.
func TestGenJobsValidAndCoverCatalogue(t *testing.T) {
	w := serveMix(t)
	cat, err := jobCatalogue(w)
	if err != nil {
		t.Fatal(err)
	}
	if want := 17 * len(w.Scales) * 16; len(cat) != want {
		t.Errorf("catalogue has %d jobs, want %d", len(cat), want)
	}
	for _, seed := range []int64{1, 2, 3} {
		jobs, err := genJobs(seed, w)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for i, j := range jobs {
			if err := j.Validate(); err != nil {
				t.Fatalf("seed %d job %d (%+v): %v", seed, i, j, err)
			}
			key, _ := json.Marshal(j)
			seen[string(key)] = true
		}
		for _, j := range cat {
			key, _ := json.Marshal(j)
			if !seen[string(key)] {
				t.Fatalf("seed %d: catalogue job %s never sent", seed, key)
			}
		}
	}
}

func TestGenJobsFewerThanCatalogue(t *testing.T) {
	w := serveMix(t)
	w.Jobs = 5
	jobs, err := genJobs(1, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 5 {
		t.Fatalf("%d jobs, want 5", len(jobs))
	}
}
