package lvp

// Differential proof of the one value-history table. refHistory is the
// obvious model of the paper's §2/§3.1 apparatus: one MRU-first slice per
// entry, indexed by (pc/InstBytes) mod entries, a hit moved to the front, a
// miss prepended with the LRU value dropped from a full history. The
// randomized differential drives the LVPT and a bare locality.HistoryTable
// through identical streams — PCs drawn so several alias each entry, values
// from a small pool so hits and evictions both happen — and demands every
// return value and every LVPTStats counter agree after every operation.

import (
	"math/rand"
	"slices"
	"testing"

	"lvp/internal/isa"
	"lvp/internal/locality"
)

// refHistory is the slice-of-slices reference model, with the LVPT's four
// counters kept beside it.
type refHistory struct {
	depth int
	hist  [][]uint64 // per entry, MRU first
	stats LVPTStats
}

func newRefHistory(entries, depth int) *refHistory {
	return &refHistory{depth: depth, hist: make([][]uint64, entries)}
}

func (r *refHistory) index(pc uint64) int {
	return int((pc / isa.InstBytes) % uint64(len(r.hist)))
}

func (r *refHistory) predict(pc uint64) (uint64, bool) {
	h := r.hist[r.index(pc)]
	r.stats.Lookups++
	if len(h) == 0 {
		return 0, false
	}
	r.stats.Hits++
	return h[0], true
}

func (r *refHistory) contains(pc, v uint64) bool {
	h := r.hist[r.index(pc)]
	r.stats.Lookups++
	if len(h) > 0 {
		r.stats.Hits++
	}
	return slices.Contains(h, v)
}

// update makes v the entry's MRU value and reports whether it was absent.
func (r *refHistory) update(pc, v uint64) (changed bool) {
	i := r.index(pc)
	h := r.hist[i]
	r.stats.Updates++
	if j := slices.Index(h, v); j >= 0 {
		r.hist[i] = append([]uint64{v}, slices.Delete(h, j, j+1)...)
		return false
	}
	if len(h) == r.depth {
		r.stats.Replacements++
		h = h[:len(h)-1]
	}
	r.hist[i] = append([]uint64{v}, h...)
	return true
}

// TestHistoryTableDifferential pins LVPT's Predict/Contains/Update and its
// counters, and HistoryTable.Access, to the reference model at depths 1, 2,
// 4 and 16.
func TestHistoryTableDifferential(t *testing.T) {
	const entries = 8
	for _, depth := range []int{1, 2, 4, 16} {
		rng := rand.New(rand.NewSource(int64(depth)))
		// 24 PCs over 8 entries: every entry is shared by three loads.
		pcs := make([]uint64, 24)
		for k := range pcs {
			pcs[k] = 0x1000 + uint64(k)*isa.InstBytes
		}
		// A pool a little larger than the deepest history, plus zero (a
		// cold entry's slot value) and a wide value.
		pool := []uint64{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 1 << 63}
		lvpt := NewLVPT(entries, depth)
		hist := locality.NewHistoryTable(entries, depth)
		ref, acc := newRefHistory(entries, depth), newRefHistory(entries, depth)
		for op := 0; op < 20000; op++ {
			pc := pcs[rng.Intn(len(pcs))]
			v := pool[rng.Intn(len(pool))]
			if rng.Intn(4) == 0 {
				v = pool[rng.Intn(3)] // keep short runs of repeats coming
			}
			switch rng.Intn(3) {
			case 0:
				gv, gok := lvpt.Predict(pc)
				wv, wok := ref.predict(pc)
				if gv != wv || gok != wok {
					t.Fatalf("depth %d op %d: Predict(%#x) = (%d, %v), reference (%d, %v)", depth, op, pc, gv, gok, wv, wok)
				}
			case 1:
				if got, want := lvpt.Contains(pc, v), ref.contains(pc, v); got != want {
					t.Fatalf("depth %d op %d: Contains(%#x, %d) = %v, reference %v", depth, op, pc, v, got, want)
				}
			case 2:
				if got, want := lvpt.Update(pc, v), ref.update(pc, v); got != want {
					t.Fatalf("depth %d op %d: Update(%#x, %d) = %v, reference %v", depth, op, pc, v, got, want)
				}
			}
			if got, want := lvpt.Stats(), ref.stats; got != want {
				t.Fatalf("depth %d op %d: stats %+v, reference %+v", depth, op, got, want)
			}
			want := acc.contains(pc, v)
			acc.update(pc, v)
			if got := hist.Access(pc, v); got != want {
				t.Fatalf("depth %d op %d: Access(%#x, %d) = %v, reference %v", depth, op, pc, v, got, want)
			}
		}
		if ref.stats.Replacements == 0 || ref.stats.Hits == ref.stats.Lookups {
			t.Errorf("depth %d: stream never replaced or never found a cold entry: %+v", depth, ref.stats)
		}
	}
}
