package exp

import (
	"fmt"

	"lvp/internal/axp21164"
	"lvp/internal/lvp"
	"lvp/internal/par"
	"lvp/internal/ppc620"
)

// This file aggregates pipeline statistics into the suite's metrics
// registry. Hot structures (LVPT, LCT, CVU, machine models) count events in
// plain per-run fields; the suite flushes those totals here with one batch
// of atomic adds per completed cell, so per-instruction paths never touch an
// atomic.

// SuiteCacheStats exposes the traffic counters of the suite's four
// single-flight caches (Annotations is the unit-run cache behind both
// Annotation and AnnotationStats). Each cache's Builds() (gets minus hits)
// equals its Entries when single-flight coalescing works — the property the
// engine's determinism rests on, and what tests assert directly instead of
// inferring from timings.
type SuiteCacheStats struct {
	Traces      par.CacheStats
	Annotations par.CacheStats
	Sims620     par.CacheStats
	Sims21164   par.CacheStats
}

// CacheStats snapshots the suite's cache traffic.
func (s *Suite) CacheStats() SuiteCacheStats {
	c := s.cacheState()
	return SuiteCacheStats{
		Traces:      c.traces.Stats(),
		Annotations: c.runs.Stats(),
		Sims620:     c.s620.Stats(),
		Sims21164:   c.s164.Stats(),
	}
}

// recordAnnStats flushes one annotation run's LVP Unit counters into the
// registry.
func (s *Suite) recordAnnStats(st lvp.Stats) {
	r := s.Metrics
	if r == nil {
		return
	}
	r.Counter("lvp.loads").Add(int64(st.Loads))
	r.Counter("lvpt.lookups").Add(st.LVPT.Lookups)
	r.Counter("lvpt.hits").Add(st.LVPT.Hits)
	r.Counter("lvpt.updates").Add(st.LVPT.Updates)
	r.Counter("lvpt.replacements").Add(st.LVPT.Replacements)
	r.Counter("lvpt.tag_miss").Add(st.LVPT.TagMisses)
	r.Counter("lvpt.alias_evict").Add(st.LVPT.AliasEvicts)
	r.Counter("lct.lookups").Add(st.LCT.Lookups)
	r.Counter("lct.updates").Add(st.LCT.Updates)
	for from := 0; from < lvp.NumClasses; from++ {
		for to := 0; to < lvp.NumClasses; to++ {
			if n := st.LCT.Transitions[from][to]; n > 0 {
				name := fmt.Sprintf("lct.trans.%s>%s",
					lvp.Classification(from), lvp.Classification(to))
				r.Counter(name).Add(n)
			}
		}
	}
	r.Counter("cvu.lookups").Add(st.CVU.Lookups)
	r.Counter("cvu.hits").Add(st.CVU.Hits)
	r.Counter("cvu.misses").Add(st.CVU.Misses)
	r.Counter("cvu.inserts").Add(st.CVU.Inserts)
	r.Counter("cvu.refreshes").Add(st.CVU.Refreshes)
	r.Counter("cvu.evictions").Add(st.CVU.Evictions)
	r.Counter("cvu.addr_invalidated").Add(st.CVU.AddrInvalidated)
	r.Counter("cvu.index_invalidated").Add(st.CVU.IndexInvalidated)
}

// recordZooStats flushes one predictor-zoo cell's counters into the
// registry. The interference totals share the lvpt.tag_miss /
// lvpt.alias_evict counters with the unit path, so a snapshot reports table
// interference in one place regardless of which layer observed it.
func (s *Suite) recordZooStats(m lvp.ZooMeasure) {
	r := s.Metrics
	if r == nil {
		return
	}
	r.Counter("zoo.loads").Add(m.Loads)
	r.Counter("zoo.attempts").Add(m.Attempts)
	r.Counter("zoo.hits").Add(m.Hits)
	r.Counter("lvpt.tag_miss").Add(m.TagMisses)
	r.Counter("lvpt.alias_evict").Add(m.AliasEvicts)
}

// record620Stats flushes one 620/620+ simulation's counters into the
// registry.
func (s *Suite) record620Stats(st ppc620.Stats) {
	r := s.Metrics
	if r == nil {
		return
	}
	r.Counter("sim620.runs").Inc()
	r.Counter("sim620.cycles").Add(int64(st.Cycles))
	r.Counter("sim620.instructions").Add(int64(st.Instructions))
	r.Counter("sim620.cache_accesses").Add(int64(st.CacheAccesses))
	r.Counter("sim620.bank_conflicts").Add(int64(st.BankConflicts))
	r.Counter("sim620.alias_refetches").Add(int64(st.AliasRefetches))
	r.Counter("sim620.mshr_stalls").Add(int64(st.MSHRStalls))
	r.Counter("sim620.stall.completion").Add(int64(st.StallCompletion))
	r.Counter("sim620.stall.rename").Add(int64(st.StallRename))
	r.Counter("sim620.stall.mem_slots").Add(int64(st.StallMemSlots))
	r.Counter("sim620.stall.fetch_empty").Add(int64(st.StallFetchEmpty))
	var rs int64
	for _, n := range st.StallRS {
		rs += int64(n)
	}
	r.Counter("sim620.stall.rs").Add(rs)
	r.Counter("sim620.l1.accesses").Add(int64(st.L1.Accesses))
	r.Counter("sim620.l1.misses").Add(int64(st.L1.Misses))
	r.Counter("sim620.l1.evictions").Add(int64(st.L1.Evictions))
	r.Counter("sim620.l2.accesses").Add(int64(st.L2.Accesses))
	r.Counter("sim620.l2.misses").Add(int64(st.L2.Misses))
}

// record164Stats flushes one 21164 simulation's counters into the registry.
func (s *Suite) record164Stats(st axp21164.Stats) {
	r := s.Metrics
	if r == nil {
		return
	}
	r.Counter("sim21164.runs").Inc()
	r.Counter("sim21164.cycles").Add(int64(st.Cycles))
	r.Counter("sim21164.instructions").Add(int64(st.Instructions))
	r.Counter("sim21164.squashes").Add(int64(st.Squashes))
	r.Counter("sim21164.predictions_cancelled").Add(int64(st.PredictionsCancelled))
	r.Counter("sim21164.miss_stall_cycles").Add(int64(st.MissStallCycles))
	r.Counter("sim21164.l1.accesses").Add(int64(st.L1.Accesses))
	r.Counter("sim21164.l1.misses").Add(int64(st.L1.Misses))
	r.Counter("sim21164.l2.accesses").Add(int64(st.L2.Accesses))
	r.Counter("sim21164.l2.misses").Add(int64(st.L2.Misses))
}

// FinalizeMetrics copies the current cache-traffic counters into registry
// gauges (cache.<name>.{gets,hits,entries}), so a metrics snapshot carries
// the par.Cache hit rates alongside the phase timers and unit counters.
// Safe to call repeatedly; each call overwrites the gauges.
func (s *Suite) FinalizeMetrics() {
	r := s.Metrics
	if r == nil {
		return
	}
	set := func(name string, cs par.CacheStats) {
		r.Gauge("cache." + name + ".gets").Set(cs.Gets)
		r.Gauge("cache." + name + ".hits").Set(cs.Hits)
		r.Gauge("cache." + name + ".entries").Set(int64(cs.Entries))
	}
	cs := s.CacheStats()
	set("traces", cs.Traces)
	set("annotations", cs.Annotations)
	set("sims620", cs.Sims620)
	set("sims21164", cs.Sims21164)
}
