// Package locality measures load value locality as defined in paper §2: the
// fraction of dynamic loads that retrieve a value matching one of the last k
// unique values retrieved by the same static load.
//
// The measurement apparatus is the paper's, exactly (its footnote 1): a
// direct-mapped table with 1K entries indexed but NOT tagged by instruction
// address, holding k values per entry replaced LRU, so both constructive and
// destructive interference between static loads can occur.
package locality

import (
	"fmt"
	"slices"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

// DefaultEntries is the history-table size used throughout the paper.
const DefaultEntries = 1024

// MaxDepth bounds the values a history-table entry may hold: 16 is the
// paper's deepest history (Figure 1, the Limit configuration), and no
// caller needs more.
const MaxDepth = 16

// HistoryTable is the untagged, direct-mapped value-history table: the
// paper's §2 measurement apparatus and the §3.1 LVPT's storage.
type HistoryTable struct {
	depth   int
	mask    uint64
	values  []uint64 // entries*depth, MRU-first per entry
	lengths []int    // number of valid values per entry
}

// NewHistoryTable returns a table with the given number of entries (a power
// of two) and history depth per entry (at most MaxDepth).
func NewHistoryTable(entries, depth int) *HistoryTable {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("locality: entries must be a positive power of two")
	}
	if depth > MaxDepth {
		panic(fmt.Sprintf("locality: history depth %d exceeds MaxDepth (%d)", depth, MaxDepth))
	}
	if depth < 1 {
		depth = 1
	}
	if entries*depth/depth != entries {
		panic(fmt.Sprintf("locality: %d entries * depth %d overflows int", entries, depth))
	}
	return &HistoryTable{
		depth:   depth,
		mask:    uint64(entries - 1),
		values:  make([]uint64, entries*depth),
		lengths: make([]int, entries),
	}
}

// Depth reports the history depth per entry.
func (h *HistoryTable) Depth() int { return h.depth }

// Index reports the entry the load at pc maps to: the low-order bits of
// its instruction address, untagged.
func (h *HistoryTable) Index(pc uint64) int {
	return int((pc / isa.InstBytes) & h.mask)
}

// Len reports how many values entry i holds (0 for a cold entry).
func (h *HistoryTable) Len(i int) int { return h.lengths[i] }

// Head returns entry i's MRU value; a cold entry's is 0.
func (h *HistoryTable) Head(i int) uint64 { return h.values[i*h.depth] }

// SetHead overwrites entry i's MRU value in place and marks a cold entry
// warm: a depth-one replacement without Insert's history search.
func (h *HistoryTable) SetHead(i int, value uint64) {
	h.values[i*h.depth] = value
	if h.lengths[i] == 0 {
		h.lengths[i] = 1
	}
}

// Insert makes value the MRU value of the load at pc's entry. hit reports
// it was already in the history (it moves to the front); on a miss it is
// prepended, and evicted reports that the entry was full and its LRU value
// was dropped.
func (h *HistoryTable) Insert(pc, value uint64) (hit, evicted bool) {
	i := h.Index(pc)
	vals := h.values[i*h.depth : i*h.depth+h.depth]
	n := h.lengths[i]
	for j := 0; j < n; j++ {
		if vals[j] == value {
			copy(vals[1:j+1], vals[:j])
			vals[0] = value
			return true, false
		}
	}
	if n < h.depth {
		h.lengths[i] = n + 1
		n++
	} else {
		evicted = true
	}
	copy(vals[1:n], vals[:n-1])
	vals[0] = value
	return false, evicted
}

// Access checks whether value matches any of the entry's history values for
// the load at pc, then updates the history (move-to-front on hit, LRU
// replacement on miss).
func (h *HistoryTable) Access(pc, value uint64) bool {
	hit, _ := h.Insert(pc, value)
	return hit
}

// Peek reports whether value is in the history of the load at pc, without
// updating it: the LVPT's perfect-selection oracle (Contains).
func (h *HistoryTable) Peek(pc, value uint64) bool {
	i := h.Index(pc)
	return slices.Contains(h.values[i*h.depth:i*h.depth+h.lengths[i]], value)
}

// Ratio is a hit/total pair.
type Ratio struct {
	Hits  int
	Total int
}

// Percent reports 100*Hits/Total (0 when Total is 0).
func (r Ratio) Percent() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Hits) / float64(r.Total)
}

func (r *Ratio) add(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// Result is the value-locality measurement of one trace at one depth.
type Result struct {
	Depth   int
	Overall Ratio
	// ByClass breaks the measurement down by the paper's Figure 2 data
	// types (indexed by isa.LoadClass).
	ByClass [isa.NumLoadClasses]Ratio
}

// Measure computes value locality for every requested history depth in one
// pass over the trace's load lanes (Trace.Mem), read a chunk of loads at a
// time: the other records never need expanding.
func Measure(t *trace.Trace, entries int, depths ...int) []Result {
	const chunk = 1024
	m, loads, static := NewMeter(entries, depths...), t.Mem(), t.Static()
	r, buf := loads.Loads(), make([]uint64, 2*chunk)
	pcs, values := buf[:chunk], buf[chunk:]
	for i, n := 0, r.Read(pcs, nil, values); n > 0; i, n = i+n, r.Read(pcs, nil, values) {
		for k, row := range loads.LoadRows[i : i+n] {
			m.add(pcs[k], values[k], static[row].Class)
		}
	}
	return m.Results()
}

// Meter accumulates value locality record-at-a-time — the streaming
// counterpart of Measure, for traces that are never materialized in memory.
// Measure is implemented on top of it, so both paths share one accumulation.
type Meter struct {
	tables  []*HistoryTable
	results []Result
}

// NewMeter returns a Meter measuring every requested history depth.
func NewMeter(entries int, depths ...int) *Meter {
	if entries <= 0 {
		entries = DefaultEntries
	}
	m := &Meter{
		tables:  make([]*HistoryTable, len(depths)),
		results: make([]Result, len(depths)),
	}
	for i, d := range depths {
		m.tables[i] = NewHistoryTable(entries, d)
		m.results[i].Depth = d
	}
	return m
}

// Add accumulates one record; non-loads are ignored.
func (m *Meter) Add(r *trace.Record) {
	if r.IsLoad() {
		m.add(r.PC, r.Value, r.Class)
	}
}

// add accumulates one load.
func (m *Meter) add(pc, value uint64, cls isa.LoadClass) {
	for k, tab := range m.tables {
		hit := tab.Access(pc, value)
		m.results[k].Overall.add(hit)
		m.results[k].ByClass[cls].add(hit)
	}
}

// Results returns the measurements accumulated so far.
func (m *Meter) Results() []Result { return m.results }
