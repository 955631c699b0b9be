package lvp

// The predictor zoo: every value-predictor family the repository can ablate,
// behind one registry so the experiment engine, lvpsim and the lvpd job API
// enumerate and instantiate families by name. Geometries are fixed per
// family (roughly the Simple configuration's 1K-entry budget), so a family
// name fully determines behaviour and sweep output is reproducible.

import (
	"fmt"

	"lvp/internal/trace"
)

// TableStatser exposes the LVPT-style event counters of a table-backed
// predictor, so sweeps can surface interference (tag misses, alias
// evictions) alongside accuracy.
type TableStatser interface {
	TableStats() LVPTStats
}

// Family is one registered predictor family.
type Family struct {
	// Name is the registry key ("last-value", "stride", "two-level", ...).
	Name string
	// Desc is a one-line description for listings and docs.
	Desc string
	// New builds a fresh predictor in the family's standard geometry.
	New func() Predictor
}

// families lists the zoo in reporting order: table-organisation ablations
// of last-value first, then the richer prediction policies. The
// organisation trio (lv-16 / lv-tagged-16 / lv-4way-16) holds the storage
// budget at 16 entries — the regime where the suite's static-load working
// sets (~17-70 PCs) genuinely contend — so untagged interference, tag
// detection, and associative avoidance are all visible in one sweep; at the
// paper's 1K budget these workloads never alias and the three organisations
// coincide.
var families = []Family{
	{"last-value", "untagged direct-mapped last-value table (paper §3.1), 1K entries",
		func() Predictor { return NewLastValue(1024) }},
	{"lv-16", "untagged direct-mapped last-value table squeezed to 16 entries",
		func() Predictor { return NewTableValue("lv-16", NewLVPT(16, 1)) }},
	{"lv-tagged-16", "tagged direct-mapped last-value table, 16 entries, 8-bit partial tags",
		func() Predictor { return NewTableValue("lv-tagged-16", NewTaggedLVPT(16, 1, 0)) }},
	{"lv-4way-16", "4-way set-associative last-value table, 16 entries, LRU, 8-bit tags",
		func() Predictor { return NewTableValue("lv-4way-16", NewAssocLVPT(16, 4, 1, 0)) }},
	{"two-value", "depth-2 value history with a trained 2-bit selector, 1K entries",
		func() Predictor { return NewTwoValue(1024) }},
	{"stride", "two-delta confirmed stride predictor, 1K entries",
		func() Predictor { return NewStride(1024) }},
	{"context-2", "order-2 single-level context predictor, 1K/4K entries",
		func() Predictor { return NewContext(1024, 4096) }},
	{"two-level", "two-level VHT/VPT context predictor, k=4, 2-bit confidence",
		func() Predictor { return NewTwoLevel(DefaultTwoLevel) }},
}

// Families returns the registered predictor families in reporting order.
func Families() []Family {
	out := make([]Family, len(families))
	copy(out, families)
	return out
}

// FamilyNames returns the registry's names in reporting order.
func FamilyNames() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.Name
	}
	return names
}

// FamilyByName returns the named family.
func FamilyByName(name string) (Family, error) {
	for _, f := range families {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("lvp: unknown predictor family %q", name)
}

// NewFamilyPredictor builds a fresh predictor of the named family.
func NewFamilyPredictor(name string) (Predictor, error) {
	f, err := FamilyByName(name)
	if err != nil {
		return nil, err
	}
	return f.New(), nil
}

// ZooMeasure is one predictor's run over one trace: how often it spoke and
// how often it was right, plus the backing table's event counters when the
// family is table-backed (zero otherwise).
type ZooMeasure struct {
	Loads    int64 `json:"loads"`
	Attempts int64 `json:"attempts"`
	Hits     int64 `json:"hits"`
	// Exact counts the loads whose value equals the predictor's guess when
	// it is made to speak: a decline guesses 0, the value every Lookup
	// returns with ok false. It is the always-speaking regime of the paper's §7 predictor comparison, and
	// is not part of the served zoo-cell payload.
	Exact int64 `json:"-"`
	// TagMisses and AliasEvicts surface table interference for the
	// tagged/set-associative families; both stay zero for families whose
	// tables cannot observe aliasing.
	TagMisses   int64 `json:"tag_misses"`
	AliasEvicts int64 `json:"alias_evicts"`
}

// Coverage is the fraction of all loads predicted exactly.
func (m ZooMeasure) Coverage() float64 {
	if m.Loads == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Loads)
}

// Accuracy is the fraction of spoken predictions that were exact.
func (m ZooMeasure) Accuracy() float64 {
	if m.Attempts == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Attempts)
}

// MeasureZoo runs a predictor over every load in the trace, reading only its
// load lanes (Trace.Mem), which every family of a sweep shares. Declined
// predictions count against coverage but not accuracy, which is the pair a
// real pipeline cares about: mispredictions cost cycles, declined
// predictions don't.
func MeasureZoo(t *trace.Trace, p Predictor) ZooMeasure {
	r, pcs, values := t.Mem().Loads(), make([]uint64, slabPCs), make([]uint64, slabPCs)
	m := ZooMeasure{Loads: int64(t.Mem().Len())}
	for n := r.Read(pcs, nil, values); n > 0; n = r.Read(pcs, nil, values) {
		for k, pc := range pcs[:n] {
			v, ok := p.Lookup(pc)
			if ok {
				m.Attempts++
				if v == values[k] {
					m.Hits++
				}
			}
			if v == values[k] {
				m.Exact++
			}
			p.Update(pc, values[k])
		}
	}
	if ts, ok := p.(TableStatser); ok {
		st := ts.TableStats()
		m.TagMisses = st.TagMisses
		m.AliasEvicts = st.AliasEvicts
	}
	return m
}
