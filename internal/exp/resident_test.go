package exp

import (
	"testing"

	"lvp/internal/bench"
	"lvp/internal/prog"
)

// TestTraceResidentBytes bounds the compact in-memory trace: the scale-1
// suite's traces, memory-op lanes and static rows included, hold at most
// 20 bytes per record (a Record is 48). Trace.ResidentBytes sums every
// lane's capacity times its element size.
func TestTraceResidentBytes(t *testing.T) {
	s := NewSuite(1)
	var recs, bytes int64
	for _, b := range bench.All() {
		for _, target := range []prog.Target{prog.PPC, prog.AXP} {
			tr, err := s.Trace(b.Name, target)
			if err != nil {
				t.Fatal(err)
			}
			recs += int64(tr.Len())
			bytes += tr.ResidentBytes()
		}
	}
	perRec := float64(bytes) / float64(recs)
	t.Logf("%d records, %.1f MB resident, %.2f B/record", recs, float64(bytes)/(1<<20), perRec)
	if perRec > 20 {
		t.Fatalf("traces hold %.2f B/record, want <= 20", perRec)
	}
	if got := s.Metrics.Gauge("trace.resident_bytes").Value(); got != bytes {
		t.Fatalf("trace.resident_bytes gauge = %d, want %d", got, bytes)
	}
}
