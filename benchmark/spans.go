package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
)

// span is one line of the span channel (obs.ChanSpan) plus the attributes
// the benchmark reads: the experiment an "exp" span covers and the record
// count of a "trace" phase.
type span struct {
	Trace   string `json:"trace"`
	ID      uint64 `json:"span"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Exp     string `json:"exp"`
	Records int64  `json:"records"`
}

func parseSpans(data []byte) ([]span, error) {
	var out []span
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("span line %q: %w", sc.Text(), err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// spanRecords sums the records of the "trace" phase spans: the records the
// VM generated.
func spanRecords(spans []span) int64 {
	var n int64
	for _, s := range spans {
		if s.Name == "trace" {
			n += s.Records
		}
	}
	return n
}

// selfTime is one row of a self-time table: every span of one name (each
// experiment gets its own row), its count, its summed duration and its
// summed self time, the part of each span no child span covers.
type selfTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	WallS float64 `json:"wall_s"`
	SelfS float64 `json:"self_s"`
}

// selfTimes builds the self-time table, largest self time first. Children
// that ran in parallel are counted once: self time subtracts the union of
// the children's intervals, clipped to the parent's.
func selfTimes(spans []span) []selfTime {
	type key struct {
		trace string
		id    uint64
	}
	kids := map[key][][2]int64{}
	for _, s := range spans {
		k := key{s.Trace, s.Parent}
		kids[k] = append(kids[k], [2]int64{s.StartUS, s.StartUS + s.DurUS})
	}
	rows := map[string]*selfTime{}
	var order []string
	for _, s := range spans {
		name := s.Name
		if s.Exp != "" {
			name = "exp " + s.Exp
		}
		row := rows[name]
		if row == nil {
			row = &selfTime{Name: name}
			rows[name] = row
			order = append(order, name)
		}
		end := s.StartUS + s.DurUS
		row.Count++
		row.WallS += float64(s.DurUS) / 1e6
		row.SelfS += float64(s.DurUS-covered(kids[key{s.Trace, s.ID}], s.StartUS, end)) / 1e6
	}
	out := make([]selfTime, len(order))
	for i, name := range order {
		out[i] = *rows[name]
	}
	slices.SortStableFunc(out, func(a, b selfTime) int { return cmp.Compare(b.SelfS, a.SelfS) })
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}
