package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lvp/internal/bench"
	"lvp/internal/obs"
	"lvp/internal/ppc620"
)

// TestResourceVariantsUnionIs620Plus checks the resource sweep's last row
// earns its "620+ (all of the above)" label: the four single-axis
// enlargements touch disjoint fields of the base 620, and together they are
// exactly Config620Plus apart from its name.
func TestResourceVariantsUnionIs620Plus(t *testing.T) {
	vs := resourceVariants()
	if len(vs) != 6 || vs[0].mc != ppc620.Config620() || vs[5].mc != ppc620.Config620Plus() {
		t.Fatalf("variants must run from the base 620 to the 620+, got %d rows", len(vs))
	}
	base := reflect.ValueOf(vs[0].mc)
	union := vs[0].mc
	u := reflect.ValueOf(&union).Elem()
	owner := map[string]string{}
	for _, v := range vs[1:5] {
		rv := reflect.ValueOf(v.mc)
		changed := 0
		for f := 0; f < rv.NumField(); f++ {
			if rv.Field(f).Equal(base.Field(f)) {
				continue
			}
			name := rv.Type().Field(f).Name
			if prev, ok := owner[name]; ok {
				t.Errorf("%q and %q both enlarge %s", prev, v.name, name)
			}
			owner[name] = v.name
			u.Field(f).Set(rv.Field(f))
			changed++
		}
		if changed == 0 {
			t.Errorf("%q does not enlarge the base 620", v.name)
		}
	}
	union.Name = vs[5].mc.Name
	if union != vs[5].mc {
		t.Fatalf("union of the enlargements\n %+v\nis not the 620+\n %+v", union, vs[5].mc)
	}
}

// TestSimAccounting checks every model run of the resource sweep, the GVP
// study and the MAF ablation goes through the suite: each simulation is
// built once, counted in progress.sim*, and timed by phase.sim*, and
// rerunning the three builds nothing.
func TestSimAccounting(t *testing.T) {
	s := NewSuite(1)
	run := func() {
		t.Helper()
		if _, err := s.ResourceSweep(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.GVPStudy(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.MAFAblation(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	// Per workload, 620: the 6 resource variants, then LVP Simple and the
	// two GVP runs (the GVP base is the sweep's base 620). 21164: blocking
	// and non-blocking, each without LVP and with Simple.
	if n := len(bench.All()); n != 17 {
		t.Fatalf("%d workloads, want 17", n)
	}
	want := map[string]int64{"sim620": 17 * 9, "sim21164": 17 * 4}
	cs := s.CacheStats()
	snap := s.Metrics.Snapshot()
	for phase, builds := range map[string]int64{"sim620": cs.Sims620.Builds(), "sim21164": cs.Sims21164.Builds()} {
		if builds != want[phase] ||
			snap.Counters["progress."+phase] != want[phase] ||
			snap.Timers["phase."+phase].Count != want[phase] {
			t.Errorf("%s: %d builds, progress %d, phase timer count %d; want %d each", phase,
				builds, snap.Counters["progress."+phase], snap.Timers["phase."+phase].Count, want[phase])
		}
	}
	run()
	if again := s.CacheStats(); again.Sims620.Builds() != cs.Sims620.Builds() || again.Sims21164.Builds() != cs.Sims21164.Builds() {
		t.Errorf("a second run built sims: 620 %d -> %d, 21164 %d -> %d",
			cs.Sims620.Builds(), again.Sims620.Builds(), cs.Sims21164.Builds(), again.Sims21164.Builds())
	}
}

// TestEnlargedVariantTraced checks an enlarged 620 of the resource sweep
// runs with the suite's tracer: its machine incidents reach the sim channel
// and its build reaches the pipeline channel.
func TestEnlargedVariantTraced(t *testing.T) {
	s := NewSuite(1)
	var buf bytes.Buffer
	s.Tracer = obs.NewTracer(&buf, obs.ChanSim|obs.ChanPipeline)
	v := resourceVariants()[4] // the second load/store unit
	if _, err := s.Sim620("quick", v.mc, nil); err != nil {
		t.Fatal(err)
	}
	var sim, done int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct{ Chan, Phase string }
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		switch {
		case ev.Chan == "sim":
			sim++
		case ev.Chan == "pipeline" && ev.Phase == "sim620":
			done++
		}
	}
	if sim == 0 || done != 1 {
		t.Fatalf("%q: %d sim events and %d sim620 phase-done events, want some and 1", v.name, sim, done)
	}
}
