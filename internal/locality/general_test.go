package locality

import (
	"testing"

	"lvp/internal/isa"
	"lvp/internal/trace"
)

func TestMeasureGeneralCoversAllWriters(t *testing.T) {
	tr := trace.FromRecords("", "", []trace.Record{
		{PC: 0x1000, Op: isa.ADD, Rd: 5, Value: 7},
		{PC: 0x1000, Op: isa.ADD, Rd: 5, Value: 7}, // hit
		{PC: 0x1004, Op: isa.LD, Rd: 6, Value: 9, Addr: 0x100, Size: 8, Class: isa.LoadIntData},
		{PC: 0x1004, Op: isa.LD, Rd: 6, Value: 9, Addr: 0x100, Size: 8, Class: isa.LoadIntData}, // hit
		{PC: 0x1008, Op: isa.SD, Rb: 6, Addr: 0x100, Size: 8},                                   // not a writer
		{PC: 0x100C, Op: isa.BEQ},                                                               // not a writer
		{PC: 0x1010, Op: isa.FADD, Rd: 2, Value: 0x3FF0000000000000},
	})
	res := MeasureGeneral(tr, 64, 1)
	r := res[0]
	if r.Overall.Total != 5 {
		t.Fatalf("writers counted = %d, want 5", r.Overall.Total)
	}
	if r.Overall.Hits != 2 {
		t.Errorf("hits = %d, want 2", r.Overall.Hits)
	}
	if r.ByClass[isa.ClassSimpleInt].Total != 2 {
		t.Errorf("simple-int total = %d, want 2", r.ByClass[isa.ClassSimpleInt].Total)
	}
	if r.ByClass[isa.ClassLoad].Hits != 1 {
		t.Errorf("load hits = %d, want 1", r.ByClass[isa.ClassLoad].Hits)
	}
	if r.ByClass[isa.ClassSimpleFP].Total != 1 {
		t.Errorf("fp total = %d, want 1", r.ByClass[isa.ClassSimpleFP].Total)
	}
}

func TestMeasureGeneralDepthsMonotone(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 300; i++ {
		recs = append(recs, trace.Record{
			PC: 0x1000, Op: isa.ADD, Rd: 5, Value: uint64(i % 4),
		})
	}
	tr := trace.FromRecords("", "", recs)
	res := MeasureGeneral(tr, 64, 1, 16)
	if res[1].Overall.Hits < res[0].Overall.Hits {
		t.Error("deeper history cannot hit less")
	}
	if res[1].Overall.Percent() < 90 {
		t.Errorf("period-4 values should be near-perfect at depth 16, got %.1f%%",
			res[1].Overall.Percent())
	}
}
