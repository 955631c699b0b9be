package perf

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunGridShape runs the grid at minimal sizing and pins the report's
// deterministic structure: schema, entry names in grid order, the fixed
// ratio keys, and sane measurements (positive throughput everywhere, zero
// allocs/record on the VLT2 decode hot paths).
func TestRunGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run is slow under -short")
	}
	rep, err := Run(Options{Benchtime: "1x", Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema {
		t.Fatalf("schema = %q, want %q", rep.Schema, Schema)
	}
	if len(rep.Entries) != len(grid) {
		t.Fatalf("%d entries, want %d", len(rep.Entries), len(grid))
	}
	for i, cell := range grid {
		e := rep.Entries[i]
		if e.Name != cell.name {
			t.Fatalf("entry %d = %q, want %q (order is part of the schema)", i, e.Name, cell.name)
		}
		if e.Records <= 0 || e.NsPerRecord <= 0 || e.RecordsPerSec <= 0 {
			t.Fatalf("%s: non-positive measurement: %+v", e.Name, e)
		}
		if (cell.bytes != nil) != (e.MBPerSec > 0) {
			t.Fatalf("%s: MB/s presence mismatch: %+v", e.Name, e)
		}
	}
	for _, r := range ratios {
		if v, ok := rep.Ratios[r.key]; !ok || v <= 0 {
			t.Fatalf("ratio %s missing or non-positive: %v", r.key, rep.Ratios)
		}
	}
	for _, e := range rep.Entries {
		switch e.Name {
		case "codec2.decode.batch", "codec2.decode.indexed", "codec2.decode.flate":
			// One reader allocation per pass amortizes below 0.001
			// allocs/record on any real trace; a regression to per-record
			// allocation would show up as >= 1 here.
			if e.AllocsPerRecord >= 1 {
				t.Fatalf("%s: %v allocs/record on the streaming decode path", e.Name, e.AllocsPerRecord)
			}
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Schema != rep.Schema || len(back.Entries) != len(rep.Entries) {
		t.Fatal("round-tripped report lost structure")
	}
}
