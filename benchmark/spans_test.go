package main

import (
	"strings"
	"testing"
)

func TestCoveredCountsParallelChildrenOnce(t *testing.T) {
	for _, c := range []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}, {6, 8}}, 0, 10, 4},
		{[][2]int64{{2, 8}, {3, 5}}, 0, 10, 6},   // nested
		{[][2]int64{{5, 9}, {2, 6}}, 0, 10, 7},   // overlapping, unsorted
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5}, // clipped to the parent
		{[][2]int64{{0, 10}, {0, 10}, {1, 2}}, 0, 10, 10},
	} {
		if got := covered(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	const jsonl = `{"msg":"span","trace":"a","span":1,"parent":0,"name":"exp","start_us":0,"dur_us":100,"exp":"fig6"}
{"msg":"span","trace":"a","span":2,"parent":1,"name":"sim620","start_us":10,"dur_us":50}
{"msg":"span","trace":"a","span":3,"parent":1,"name":"trace","start_us":30,"dur_us":40,"records":7}
{"msg":"span","trace":"b","span":1,"parent":0,"name":"trace","start_us":0,"dur_us":10,"records":5}
`
	spans, err := parseSpans([]byte(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	if got := spanRecords(spans); got != 12 {
		t.Errorf("spanRecords = %d, want 12", got)
	}
	rows := map[string]selfTime{}
	for _, r := range selfTimes(spans) {
		rows[r.Name] = r
	}
	// fig6's children cover 10..70 of its 0..100: 40 µs of self time.
	if r := rows["exp fig6"]; r.Count != 1 || !near(r.SelfS, 40e-6) || !near(r.WallS, 100e-6) {
		t.Errorf("exp fig6 row = %+v", r)
	}
	// Span 1 of trace b is a different span from span 1 of trace a.
	if r := rows["trace"]; r.Count != 2 || !near(r.SelfS, 50e-6) {
		t.Errorf("trace row = %+v", r)
	}
	if _, err := parseSpans([]byte("not json\n")); err == nil || !strings.Contains(err.Error(), "span line") {
		t.Errorf("parseSpans accepted a bad line: %v", err)
	}
}
