package lvp

import "lvp/internal/locality"

// LVPTStats counts table events. The counters are plain ints — each LVPT
// belongs to exactly one LVP Unit running on one goroutine — and are
// aggregated into atomic registry counters once per annotation pass.
type LVPTStats struct {
	// Lookups counts Predict/Contains queries; Hits counts the subset
	// that found a warm entry (at least one value in its history).
	Lookups int64
	Hits    int64
	// Updates counts Update calls; Replacements counts the subset that
	// displaced a value from a full history (the table's only form of
	// eviction — it is untagged, so there are no tag misses to count).
	Updates      int64
	Replacements int64
	// Interference counters, populated only by the tagged/set-associative
	// organisations (the untagged direct-mapped LVPT cannot observe its
	// own aliasing, which is exactly the paper's silent-interference
	// problem). TagMisses counts lookups that indexed a set holding only
	// foreign tags — an alias the tags detected and refused to predict
	// from. AliasEvicts counts updates that displaced a live entry with a
	// different tag — destructive interference made visible.
	TagMisses   int64
	AliasEvicts int64
}

// ValueTable is the storage contract of the LVP Unit's first-level value
// table. The untagged direct-mapped LVPT (paper §3.1) is the baseline
// implementation; AssocLVPT provides the tagged and set-associative
// organisations as drop-in alternatives (Config.LVPTStyle selects one).
type ValueTable interface {
	// Index reports the set/entry index used as the CVU coordinate.
	Index(pc uint64) int
	// Predict returns the MRU value for the load at pc; ok is false when
	// the table holds no usable history for it.
	Predict(pc uint64) (value uint64, ok bool)
	// Contains reports whether value appears in pc's history (the perfect
	// selection oracle for depths > 1).
	Contains(pc, value uint64) bool
	// Update records the actual value, reporting whether the entry's
	// contents changed (the CVU invalidation trigger).
	Update(pc, value uint64) (changed bool)
	// Stats returns the accumulated event counters.
	Stats() LVPTStats
}

// LVPT is the Load Value Prediction Table (paper §3.1): direct-mapped,
// untagged, indexed by the low-order bits of the load instruction address.
// Because it is untagged, static loads that alias the same entry interfere —
// constructively or destructively — exactly as in the paper. Its storage is
// the §2 value-history table; the LVPT adds only the event counters.
type LVPT struct {
	h     locality.HistoryTable
	stats LVPTStats
}

// NewLVPT returns a table with the given entries (power of two) and history
// depth (at most locality.MaxDepth).
func NewLVPT(entries, depth int) *LVPT {
	return &LVPT{h: *locality.NewHistoryTable(entries, depth)}
}

// Index reports the LVPT entry index for a load at pc. The same index is the
// one concatenated with the data address in CVU entries.
func (t *LVPT) Index(pc uint64) int { return t.h.Index(pc) }

// Predict returns the predicted value for the load at pc. For history depth
// one this is simply the entry's value. For deeper histories the paper
// assumes a perfect selection mechanism, which the caller models by using
// Contains against the actual value; Predict then returns the MRU value.
// ok is false when the entry has no history yet (no prediction possible).
func (t *LVPT) Predict(pc uint64) (value uint64, ok bool) {
	i := t.h.Index(pc)
	t.stats.Lookups++
	if t.h.Len(i) == 0 {
		return 0, false
	}
	t.stats.Hits++
	return t.h.Head(i), true
}

// Contains reports whether value appears anywhere in the entry's history —
// the oracle query backing the paper's "perfect selection mechanism" for
// history depths greater than one.
func (t *LVPT) Contains(pc, value uint64) bool {
	t.stats.Lookups++
	if t.h.Len(t.h.Index(pc)) > 0 {
		t.stats.Hits++
	}
	return t.h.Peek(pc, value)
}

// Update records the actual loaded value (MRU insertion with LRU
// replacement). It reports whether the entry's *contents* changed — i.e. the
// value was not already present, so an old value was displaced (or the entry
// grew). The caller uses this to invalidate CVU entries referring to this
// index, keeping the CVU's coherence guarantee exact.
func (t *LVPT) Update(pc, value uint64) (changed bool) {
	t.stats.Updates++
	hit, evicted := t.h.Insert(pc, value)
	if evicted {
		t.stats.Replacements++
	}
	return !hit
}

// Stats returns the accumulated table counters.
func (t *LVPT) Stats() LVPTStats { return t.stats }
