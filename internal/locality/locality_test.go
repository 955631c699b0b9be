package locality

import (
	"strings"
	"testing"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

func loadRec(pc, value uint64, class isa.LoadClass) trace.Record {
	return trace.Record{PC: pc, Op: isa.LD, Value: value, Size: 8, Class: class}
}

func TestDepthOneHitsOnRepeat(t *testing.T) {
	h := NewHistoryTable(16, 1)
	if h.Access(0x1000, 42) {
		t.Error("first access must miss")
	}
	if !h.Access(0x1000, 42) {
		t.Error("repeat must hit")
	}
	if h.Access(0x1000, 43) {
		t.Error("changed value must miss")
	}
	if h.Access(0x1000, 42) {
		t.Error("depth 1 must have forgotten 42 after seeing 43")
	}
}

func TestDeepHistoryRemembers(t *testing.T) {
	h := NewHistoryTable(16, 4)
	for v := uint64(1); v <= 4; v++ {
		h.Access(0x1000, v)
	}
	for v := uint64(1); v <= 4; v++ {
		if !h.Peek(0x1000, v) {
			t.Errorf("value %d should be in a depth-4 history", v)
		}
	}
	h.Access(0x1000, 5) // evicts LRU = 1
	if h.Peek(0x1000, 1) {
		t.Error("LRU value 1 should have been evicted")
	}
	if !h.Peek(0x1000, 5) || !h.Peek(0x1000, 2) {
		t.Error("values 2..5 should remain")
	}
}

func TestLRUMoveToFront(t *testing.T) {
	h := NewHistoryTable(16, 2)
	h.Access(0x1000, 1)
	h.Access(0x1000, 2)
	h.Access(0x1000, 1) // hit; 1 becomes MRU
	h.Access(0x1000, 3) // evicts 2, not 1
	if !h.Peek(0x1000, 1) {
		t.Error("1 was MRU and must survive")
	}
	if h.Peek(0x1000, 2) {
		t.Error("2 was LRU and must be gone")
	}
}

func TestUntaggedInterference(t *testing.T) {
	// Two PCs that map to the same entry of a 16-entry table interfere.
	h := NewHistoryTable(16, 1)
	pcA := uint64(0x1000)
	pcB := pcA + 16*isa.InstBytes // same index
	h.Access(pcA, 7)
	if !h.Access(pcB, 7) {
		t.Error("constructive interference: pcB should hit pcA's value")
	}
	h.Access(pcB, 9)
	if h.Access(pcA, 7) {
		t.Error("destructive interference: pcB should have evicted pcA's value")
	}
}

func TestMeasureOverallAndByClass(t *testing.T) {
	tr := &trace.Trace{Records: []trace.Record{
		loadRec(0x1000, 5, isa.LoadIntData),
		loadRec(0x1000, 5, isa.LoadIntData), // hit
		loadRec(0x1000, 5, isa.LoadIntData), // hit
		loadRec(0x2000, 1, isa.LoadInstAddr),
		loadRec(0x2000, 1, isa.LoadInstAddr), // hit
		loadRec(0x3000, 9, isa.LoadFPData),
		{PC: 0x4000, Op: isa.ADD}, // not a load: ignored
	}}
	res := Measure(tr, 1024, 1)
	if len(res) != 1 {
		t.Fatalf("want 1 result, got %d", len(res))
	}
	r := res[0]
	if r.Overall.Total != 6 || r.Overall.Hits != 3 {
		t.Errorf("overall = %d/%d, want 3/6", r.Overall.Hits, r.Overall.Total)
	}
	if got := r.ByClass[isa.LoadIntData]; got.Hits != 2 || got.Total != 3 {
		t.Errorf("int-data = %+v, want 2/3", got)
	}
	if got := r.ByClass[isa.LoadInstAddr]; got.Hits != 1 || got.Total != 2 {
		t.Errorf("inst-addr = %+v, want 1/2", got)
	}
	if got := r.ByClass[isa.LoadFPData]; got.Hits != 0 || got.Total != 1 {
		t.Errorf("fp = %+v, want 0/1", got)
	}
}

func TestMeasureMultipleDepthsMonotone(t *testing.T) {
	// Alternating values: depth 1 misses everything, depth 2 hits.
	var recs []trace.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, loadRec(0x1000, uint64(i%2+10), isa.LoadIntData))
	}
	tr := &trace.Trace{Records: recs}
	res := Measure(tr, 1024, 1, 2, 16)
	if res[0].Overall.Hits != 0 {
		t.Errorf("depth-1 hits = %d, want 0 for alternating values", res[0].Overall.Hits)
	}
	if res[1].Overall.Hits != 98 {
		t.Errorf("depth-2 hits = %d, want 98", res[1].Overall.Hits)
	}
	if res[2].Overall.Hits < res[1].Overall.Hits {
		t.Error("deeper history can never hit less")
	}
}

func TestRatioPercent(t *testing.T) {
	if (Ratio{}).Percent() != 0 {
		t.Error("empty ratio must be 0%")
	}
	if got := (Ratio{Hits: 1, Total: 4}).Percent(); got != 25 {
		t.Errorf("percent = %v, want 25", got)
	}
}

func TestBadEntriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two entries must panic")
		}
	}()
	NewHistoryTable(1000, 1)
}

// TestHistoryTableMaxDepth checks a depth past MaxDepth panics with a message
// naming the bound instead of wrapping entries*depth, and MaxDepth itself
// builds.
func TestHistoryTableMaxDepth(t *testing.T) {
	if h := NewHistoryTable(1024, MaxDepth); h.Depth() != MaxDepth {
		t.Errorf("depth %d table reports depth %d", MaxDepth, h.Depth())
	}
	for _, d := range []int{MaxDepth + 1, 1 << 60} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "MaxDepth") {
					t.Errorf("NewHistoryTable(1024, %d) panic = %q, want one naming MaxDepth", d, msg)
				}
			}()
			NewHistoryTable(1024, d)
		}()
	}
}
