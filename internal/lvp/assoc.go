package lvp

import "lvp/internal/isa"

// AssocLVPT is a tagged, set-associative Load Value Prediction Table: the
// low-order bits of the load address select a set, a partial tag built from
// the next higher bits must match before the entry is used, and within a set
// victims are chosen LRU. A 1-way instance is the tagged direct-mapped
// variant. Both answer the question the paper's untagged table cannot: how
// much of its behaviour is aliasing — TagMisses counts predictions the tags
// refused (the untagged table would have served a foreign value), AliasEvicts
// counts live entries displaced by a differently-tagged load.
//
// Recency is updated on Update only; Predict and Contains are pure reads of
// table state (they touch counters, never the LRU order), so the prediction
// path stays deterministic under re-query and allocation-free.
type AssocLVPT struct {
	ways    int
	depth   int
	setBits uint
	setMask uint64
	tagMask uint64

	// All state lives in flat slices indexed by way slot
	// (set*ways + way); values adds a third depth dimension.
	tags    []uint64
	valid   []bool
	stamps  []uint64 // LRU clock value at last Update touch
	lengths []int    // live history length per way
	values  []uint64 // (set*ways+way)*depth + j, MRU at j == 0

	clock uint64
	stats LVPTStats
}

// NewAssocLVPT returns a table with `entries` total entries (power of two)
// organised as entries/ways sets of `ways` ways (ways a positive power of
// two dividing entries), history depth `depth` per way, and partial tags of
// `tagBits` bits (1..32; 0 selects DefaultTagBits).
func NewAssocLVPT(entries, ways, depth, tagBits int) *AssocLVPT {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("lvp: assoc LVPT entries must be a positive power of two")
	}
	if ways <= 0 || ways&(ways-1) != 0 || ways > entries {
		panic("lvp: assoc LVPT ways must be a positive power of two <= entries")
	}
	if tagBits == 0 {
		tagBits = DefaultTagBits
	}
	if tagBits < 1 || tagBits > 32 {
		panic("lvp: assoc LVPT tag bits must be in [1,32]")
	}
	if depth < 1 {
		depth = 1
	}
	if entries*depth/depth != entries {
		panic("lvp: assoc LVPT entries * depth overflows int")
	}
	sets := entries / ways
	setBits := uint(0)
	for 1<<setBits < sets {
		setBits++
	}
	return &AssocLVPT{
		ways:    ways,
		depth:   depth,
		setBits: setBits,
		setMask: uint64(sets - 1),
		tagMask: 1<<uint(tagBits) - 1,
		tags:    make([]uint64, entries),
		valid:   make([]bool, entries),
		stamps:  make([]uint64, entries),
		lengths: make([]int, entries),
		values:  make([]uint64, entries*depth),
	}
}

// NewTaggedLVPT returns the tagged direct-mapped variant: a 1-way AssocLVPT.
func NewTaggedLVPT(entries, depth, tagBits int) *AssocLVPT {
	return NewAssocLVPT(entries, 1, depth, tagBits)
}

// DefaultTagBits is the partial-tag width used when a configuration leaves
// LVPTTagBits at zero.
const DefaultTagBits = 8

// line is the word-aligned instruction address the index and tag derive
// from — the same normalisation every table in the unit applies.
func (t *AssocLVPT) line(pc uint64) uint64 { return pc / isa.InstBytes }

// Index reports the set index for a load at pc — the CVU coordinate. For a
// 1-way table this is the entry index, exactly as in the untagged LVPT.
func (t *AssocLVPT) Index(pc uint64) int { return int(t.line(pc) & t.setMask) }

// tag extracts the partial tag: the bits immediately above the set index.
func (t *AssocLVPT) tag(pc uint64) uint64 { return (t.line(pc) >> t.setBits) & t.tagMask }

// lookup scans pc's set. It returns the matching way slot (set*ways+way),
// or -1 with aliased reporting whether the set held at least one live
// foreign entry (a detected alias rather than a cold miss).
func (t *AssocLVPT) lookup(pc uint64) (slot int, aliased bool) {
	base := t.Index(pc) * t.ways
	tag := t.tag(pc)
	aliased = false
	for w := 0; w < t.ways; w++ {
		if !t.valid[base+w] {
			continue
		}
		if t.tags[base+w] == tag {
			return base + w, false
		}
		aliased = true
	}
	return -1, aliased
}

// Predict returns the MRU value for the load at pc; ok is false on a tag
// miss or a cold set.
func (t *AssocLVPT) Predict(pc uint64) (value uint64, ok bool) {
	t.stats.Lookups++
	slot, aliased := t.lookup(pc)
	if slot < 0 {
		if aliased {
			t.stats.TagMisses++
		}
		return 0, false
	}
	t.stats.Hits++
	return t.values[slot*t.depth], true
}

// Contains reports whether value appears in pc's history — the perfect
// selection oracle for depths > 1, gated by the tag match.
func (t *AssocLVPT) Contains(pc, value uint64) bool {
	t.stats.Lookups++
	slot, aliased := t.lookup(pc)
	if slot < 0 {
		if aliased {
			t.stats.TagMisses++
		}
		return false
	}
	t.stats.Hits++
	vals := t.values[slot*t.depth : slot*t.depth+t.depth]
	for j := 0; j < t.lengths[slot]; j++ {
		if vals[j] == value {
			return true
		}
	}
	return false
}

// Update records the actual loaded value. On a tag match the way's history
// takes an MRU insertion with LRU replacement, exactly like the untagged
// table; on a miss the way chosen as victim (an invalid way first, else the
// set's LRU) is re-tagged and its history reset to the new value. The
// returned changed flag keeps the CVU invalidation discipline exact: true
// whenever the entry's visible contents changed.
func (t *AssocLVPT) Update(pc, value uint64) (changed bool) {
	t.stats.Updates++
	t.clock++
	slot, _ := t.lookup(pc)
	if slot >= 0 {
		t.stamps[slot] = t.clock
		vals := t.values[slot*t.depth : slot*t.depth+t.depth]
		n := t.lengths[slot]
		for j := 0; j < n; j++ {
			if vals[j] == value {
				copy(vals[1:j+1], vals[:j])
				vals[0] = value
				return false
			}
		}
		if n < t.depth {
			t.lengths[slot] = n + 1
			n++
		} else {
			t.stats.Replacements++
		}
		copy(vals[1:n], vals[:n-1])
		vals[0] = value
		return true
	}
	// Victim selection: first invalid way in way order, else the LRU way
	// (clock stamps are unique, so the minimum is unambiguous).
	base := t.Index(pc) * t.ways
	victim := -1
	for w := 0; w < t.ways; w++ {
		if !t.valid[base+w] {
			victim = base + w
			break
		}
	}
	if victim < 0 {
		victim = base
		for w := 1; w < t.ways; w++ {
			if t.stamps[base+w] < t.stamps[victim] {
				victim = base + w
			}
		}
		t.stats.AliasEvicts++
	}
	t.tags[victim] = t.tag(pc)
	t.valid[victim] = true
	t.stamps[victim] = t.clock
	t.lengths[victim] = 1
	t.values[victim*t.depth] = value
	return true
}

// Ways reports the associativity (1 = tagged direct-mapped).
func (t *AssocLVPT) Ways() int { return t.ways }

// Stats returns the accumulated table counters.
func (t *AssocLVPT) Stats() LVPTStats { return t.stats }
