package dfg

import (
	"errors"
	"testing"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

// analyze is Analyze for a well-formed annotation.
func analyze(t *testing.T, tr *trace.Trace, ann trace.Annotation, lat Latencies) Result {
	t.Helper()
	r, err := Analyze(tr, ann, lat)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSerialChainCriticalPath(t *testing.T) {
	// 100 dependent adds: critical path = 100 cycles.
	var recs []trace.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, trace.Record{
			PC: uint64(0x1000 + 4*i), Op: isa.ADD, Rd: 5, Ra: 5, Rb: 5,
		})
	}
	r := analyze(t, trace.FromRecords("", "", recs), nil, Default620())
	if r.CriticalPath != 100 {
		t.Errorf("critical path = %d, want 100", r.CriticalPath)
	}
	if r.LimitIPC() != 1 {
		t.Errorf("limit IPC = %v, want 1", r.LimitIPC())
	}
}

func TestIndependentOpsFlat(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, trace.Record{
			PC: uint64(0x1000 + 4*i), Op: isa.ADD, Rd: isa.Reg(1 + i%20), Ra: 0, Rb: 0,
		})
	}
	r := analyze(t, trace.FromRecords("", "", recs), nil, Default620())
	if r.CriticalPath != 1 {
		t.Errorf("independent ops critical path = %d, want 1", r.CriticalPath)
	}
}

func loadChain(n int) *trace.Trace {
	var recs []trace.Record
	for i := 0; i < n; i++ {
		recs = append(recs,
			trace.Record{PC: 0x1000, Op: isa.LD, Rd: 5, Ra: 5,
				Addr: 0x100000, Value: 0x100000, Size: 8, Class: isa.LoadIntData},
			trace.Record{PC: 0x1004, Op: isa.ADD, Rd: 5, Ra: 5, Rb: 0},
		)
	}
	return trace.FromRecords("", "", recs)
}

func TestCollapsedLoadsShortenPath(t *testing.T) {
	tr := loadChain(100)
	base := analyze(t, tr, nil, Default620())
	ann := trace.NewAnnotation(tr)
	for i, r := range tr.Expand() {
		if r.IsLoad() {
			ann[i] = trace.PredCorrect
		}
	}
	collapsed := analyze(t, tr, ann, Default620())
	// Chain per pair: load(2) + add(1) = 3 -> collapsed: add(1) only.
	if base.CriticalPath != 300 {
		t.Errorf("base critical path = %d, want 300", base.CriticalPath)
	}
	if collapsed.CriticalPath != 100 {
		t.Errorf("collapsed critical path = %d, want 100", collapsed.CriticalPath)
	}
	if collapsed.CollapsedLoads != 100 {
		t.Errorf("collapsed loads = %d, want 100", collapsed.CollapsedLoads)
	}
}

func TestIncorrectPredictionsNotCollapsed(t *testing.T) {
	tr := loadChain(50)
	ann := trace.NewAnnotation(tr)
	for i, r := range tr.Expand() {
		if r.IsLoad() {
			ann[i] = trace.PredIncorrect
		}
	}
	r := analyze(t, tr, ann, Default620())
	base := analyze(t, tr, nil, Default620())
	if r.CriticalPath != base.CriticalPath {
		t.Errorf("incorrect predictions must not shorten the path: %d vs %d",
			r.CriticalPath, base.CriticalPath)
	}
	if r.CollapsedLoads != 0 {
		t.Errorf("collapsed loads = %d, want 0", r.CollapsedLoads)
	}
}

func TestMemoryDependenceHonoured(t *testing.T) {
	// store (fed by a divide) -> load of the same address: the load's
	// completion must wait for the store even with no register deps.
	recs := []trace.Record{
		{PC: 0x1000, Op: isa.DIV, Rd: 7, Ra: 1, Rb: 2},
		{PC: 0x1004, Op: isa.SD, Rb: 7, Ra: 1, Addr: 0x100000, Value: 1, Size: 8},
		{PC: 0x1008, Op: isa.LD, Rd: 5, Ra: 3, Addr: 0x100000, Value: 1, Size: 8, Class: isa.LoadIntData},
	}
	lat := Default620()
	r := analyze(t, trace.FromRecords("", "", recs), nil, lat)
	want := lat.Div + lat.Store + lat.Load
	if r.CriticalPath != want {
		t.Errorf("critical path = %d, want %d (div -> store -> load)", r.CriticalPath, want)
	}
	// Disjoint address: the load no longer chains behind the store.
	recs[2].Addr = 0x200000
	r2 := analyze(t, trace.FromRecords("", "", recs), nil, lat)
	if r2.CriticalPath != lat.Div+lat.Store {
		t.Errorf("disjoint critical path = %d, want %d", r2.CriticalPath, lat.Div+lat.Store)
	}
}

func TestZeroResult(t *testing.T) {
	var r Result
	if r.LimitIPC() != 0 {
		t.Error("empty result must report 0 IPC")
	}
}

// TestAnalyzeAnnotationLength checks an annotation that does not hold one state
// per record is refused with trace.ErrAnnotationLength, whether it is too
// short (it used to index past its end) or too long (it used to be
// accepted silently).
func TestAnalyzeAnnotationLength(t *testing.T) {
	tr := loadChain(10)
	for _, n := range []int{0, tr.Len() / 2, tr.Len() - 1, tr.Len() + 1} {
		ann := make(trace.Annotation, n)
		for i := range ann {
			ann[i] = trace.PredCorrect
		}
		if _, err := Analyze(tr, ann, Default620()); !errors.Is(err, trace.ErrAnnotationLength) {
			t.Errorf("%d states for %d records: err %v, want %v", n, tr.Len(), err, trace.ErrAnnotationLength)
		}
	}
}
