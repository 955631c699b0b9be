package lvp

// Differential proof of the indexed CVU. referenceCVU is the obvious
// linear-scan CAM model (the pre-optimization implementation, with the two
// semantic fixes this layer shipped: overflow-safe store-overlap matching
// and the Inserts/Refreshes split). The randomized differential drives both
// implementations through identical operation sequences and demands
// decision-for-decision identity: every return value, every stat counter,
// the exact surviving entry set with LRU timestamps — which pins eviction
// victims — after every single operation.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refEntry mirrors cvuNode's payload for the scan model.
type refEntry struct {
	addr  uint64
	index int
	used  uint64
}

// referenceCVU is the linear-scan reference model: a flat slice searched
// front to back, LRU chosen by minimum timestamp. Deliberately naive — its
// correctness is auditable at a glance, which is the whole point of a
// reference model.
type referenceCVU struct {
	capacity int
	entries  []refEntry
	clock    uint64
	stats    CVUStats
}

func newReferenceCVU(capacity int) *referenceCVU {
	if capacity < 0 {
		capacity = 0
	}
	return &referenceCVU{capacity: capacity}
}

func (c *referenceCVU) Lookup(addr uint64, index int) bool {
	c.stats.Lookups++
	for i := range c.entries {
		if c.entries[i].addr == addr && c.entries[i].index == index {
			c.clock++
			c.entries[i].used = c.clock
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

func (c *referenceCVU) Insert(addr uint64, index int) {
	if c.capacity == 0 {
		return
	}
	c.clock++
	for i := range c.entries {
		if c.entries[i].addr == addr && c.entries[i].index == index {
			c.stats.Refreshes++
			c.entries[i].used = c.clock
			return
		}
	}
	c.stats.Inserts++
	if len(c.entries) < c.capacity {
		c.entries = append(c.entries, refEntry{addr: addr, index: index, used: c.clock})
		return
	}
	c.stats.Evictions++
	victim := 0
	for i := 1; i < len(c.entries); i++ {
		if c.entries[i].used < c.entries[victim].used {
			victim = i
		}
	}
	c.entries[victim] = refEntry{addr: addr, index: index, used: c.clock}
}

func (c *referenceCVU) InvalidateAddr(addr uint64, size int) int {
	if size <= 0 {
		size = 1
	}
	// Independent derivation of the overlap predicate: compare the last
	// covered byte of each range, clipping (not wrapping) at ^uint64(0).
	storeLast := addr + uint64(size) - 1
	if storeLast < addr {
		storeLast = ^uint64(0)
	}
	removed := 0
	kept := c.entries[:0]
	for _, e := range c.entries {
		entryLast := e.addr + 7
		if entryLast < e.addr {
			entryLast = ^uint64(0)
		}
		if entryLast >= addr && storeLast >= e.addr {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	c.entries = kept
	c.stats.AddrInvalidated += int64(removed)
	return removed
}

func (c *referenceCVU) InvalidateIndex(index int) int {
	removed := 0
	kept := c.entries[:0]
	for _, e := range c.entries {
		if e.index == index {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	c.entries = kept
	c.stats.IndexInvalidated += int64(removed)
	return removed
}

func (c *referenceCVU) Len() int        { return len(c.entries) }
func (c *referenceCVU) Stats() CVUStats { return c.stats }

// entrySet materializes a CVU's live entries keyed by (addr, index), with
// the LRU timestamp as the value. Timestamp equality across implementations
// pins recency — and therefore future eviction victims — exactly.
type cvuKey struct {
	addr  uint64
	index int
}

func (c *CVU) entrySet() map[cvuKey]uint64 {
	set := make(map[cvuKey]uint64, c.size)
	for n := c.head; n >= 0; n = c.nodes[n].next {
		set[cvuKey{c.nodes[n].addr, c.nodes[n].index}] = c.nodes[n].used
	}
	return set
}

func (c *referenceCVU) entrySet() map[cvuKey]uint64 {
	set := make(map[cvuKey]uint64, len(c.entries))
	for _, e := range c.entries {
		set[cvuKey{e.addr, e.index}] = e.used
	}
	return set
}

// checkLRUOrder verifies the indexed CVU's internal recency list is sorted
// by strictly decreasing timestamp (head = MRU) and consistent with size.
func checkLRUOrder(t *testing.T, c *CVU) {
	t.Helper()
	count := 0
	prevUsed := ^uint64(0)
	for n := c.head; n >= 0; n = c.nodes[n].next {
		if u := c.nodes[n].used; u >= prevUsed {
			t.Fatalf("LRU list out of order: used %d after %d", u, prevUsed)
		} else {
			prevUsed = u
		}
		count++
	}
	if count != c.size {
		t.Fatalf("LRU list has %d nodes, size says %d", count, c.size)
	}
}

// cvuOp is one step of a differential script.
type cvuOp struct {
	kind int // 0 lookup, 1 insert, 2 invalidate-addr, 3 invalidate-index
	addr uint64
	idx  int
	size int
}

// applyOp drives both implementations and fails on any observable
// divergence.
func applyOp(t *testing.T, step int, op cvuOp, got *CVU, want *referenceCVU) {
	t.Helper()
	switch op.kind {
	case 0:
		g, w := got.Lookup(op.addr, op.idx), want.Lookup(op.addr, op.idx)
		if g != w {
			t.Fatalf("step %d: Lookup(%#x, %d) = %v, reference %v", step, op.addr, op.idx, g, w)
		}
	case 1:
		got.Insert(op.addr, op.idx)
		want.Insert(op.addr, op.idx)
	case 2:
		g, w := got.InvalidateAddr(op.addr, op.size), want.InvalidateAddr(op.addr, op.size)
		if g != w {
			t.Fatalf("step %d: InvalidateAddr(%#x, %d) = %d, reference %d",
				step, op.addr, op.size, g, w)
		}
	case 3:
		g, w := got.InvalidateIndex(op.idx), want.InvalidateIndex(op.idx)
		if g != w {
			t.Fatalf("step %d: InvalidateIndex(%d) = %d, reference %d", step, op.idx, g, w)
		}
	}
	if g, w := got.Len(), want.Len(); g != w {
		t.Fatalf("step %d after %+v: Len = %d, reference %d", step, op, g, w)
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("step %d after %+v: stats diverged:\n indexed   %+v\n reference %+v",
			step, op, g, w)
	}
	if g, w := got.entrySet(), want.entrySet(); !reflect.DeepEqual(g, w) {
		t.Fatalf("step %d after %+v: entry sets diverged:\n indexed   %v\n reference %v",
			step, op, g, w)
	}
	checkLRUOrder(t, got)
}

// randomOp draws an operation from a regime that keeps the two address
// "zones" colliding: a dense low window (heavy aliasing, bucket chains,
// LRU churn) and a window hugging ^uint64(0) (the overflow edge).
func randomOp(rnd *rand.Rand) cvuOp {
	op := cvuOp{kind: rnd.Intn(4)}
	if rnd.Intn(4) == 0 {
		op.addr = ^uint64(0) - uint64(rnd.Intn(24)) // near-max zone
	} else {
		op.addr = 0x1000 + uint64(rnd.Intn(96)) // dense zone, unaligned too
	}
	op.idx = rnd.Intn(12)
	switch rnd.Intn(8) {
	case 0:
		op.size = 0 // degenerate store sizes must behave like size 1
	case 1:
		op.size = -rnd.Intn(4)
	case 2:
		op.size = 1 << uint(3+rnd.Intn(10)) // wide stores exercise the span fallback
	default:
		op.size = []int{1, 2, 4, 8}[rnd.Intn(4)]
	}
	return op
}

// TestCVUDifferential is the main equivalence proof: many seeds, several
// capacities (including the degenerate 0 and 1), thousands of ops each,
// full-state comparison after every op.
func TestCVUDifferential(t *testing.T) {
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for _, capacity := range []int{0, 1, 2, 8, 32} {
		for seed := int64(0); seed < 10; seed++ {
			rnd := rand.New(rand.NewSource(seed*131 + int64(capacity)))
			got := NewCVU(capacity)
			want := newReferenceCVU(capacity)
			for step := 0; step < steps; step++ {
				applyOp(t, step, randomOp(rnd), got, want)
			}
		}
	}
}

// FuzzCVUDifferential interprets the fuzz input as an operation script, so
// the fuzzer can hunt for divergent sequences beyond the random regime.
// Each op consumes 12 bytes: kind, 8 addr bytes, 2 index bytes (an index
// below 8192, the largest swept LVPT), size.
func FuzzCVUDifferential(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x10, 0x00, 0, 3, 8})
	f.Add([]byte{
		1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfa, 0, 1, 8, // insert near max
		2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 8, // store at max
	})
	f.Add([]byte{
		1, 0, 0, 0, 0, 0, 0, 0x10, 0x00, 0x1f, 0xff, 8, // insert at index 8191
		0, 0, 0, 0, 0, 0, 0, 0x10, 0x00, 0x1f, 0xff, 8, // hit it
		3, 0, 0, 0, 0, 0, 0, 0x00, 0x00, 0x1f, 0xff, 8, // invalidate it
	})
	f.Add([]byte{
		1, 0, 0, 0, 0, 0, 0, 0x20, 0x00, 0, 1, 8, // insert (0x2000, 1)
		1, 0, 0, 0, 0, 0, 0, 0x20, 0x00, 0, 2, 8, // same address, index 2
		0, 0, 0, 0, 0, 0, 0, 0x20, 0x00, 0, 3, 8, // index 3 must miss
		0, 0, 0, 0, 0, 0, 0, 0x20, 0x00, 0, 2, 8, // index 2 hits
		3, 0, 0, 0, 0, 0, 0, 0x00, 0x00, 0, 1, 8, // drop index 1 only
		0, 0, 0, 0, 0, 0, 0, 0x20, 0x00, 0, 1, 8, // index 1 now misses
		0, 0, 0, 0, 0, 0, 0, 0x20, 0x00, 0, 2, 8, // index 2 still hits
	})
	f.Fuzz(func(t *testing.T, script []byte) {
		got, want := NewCVU(4), newReferenceCVU(4)
		for step := 0; len(script) >= 12; step++ {
			op := cvuOp{kind: int(script[0] % 4), idx: (int(script[9])<<8 | int(script[10])) % 8192}
			for _, b := range script[1:9] {
				op.addr = op.addr<<8 | uint64(b)
			}
			op.size = int(int8(script[11]))
			script = script[12:]
			applyOp(t, step, op, got, want)
		}
	})
}

// TestCVUDifferentialWideIndex widens the index space to a full
// 8192-entry LVPT (the largest LVPT sweep point). Indices come from a small
// pool spread over [0, 8192), so Lookup hits and index invalidations still
// happen while the index chain heads grow.
func TestCVUDifferentialWideIndex(t *testing.T) {
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for _, capacity := range []int{1, 8, 32, 128} {
		for seed := int64(0); seed < 4; seed++ {
			rnd := rand.New(rand.NewSource(seed*977 + int64(capacity)))
			pool := []int{0, 8191, 1023, 1024, 4095, 4096}
			for len(pool) < 16 {
				pool = append(pool, rnd.Intn(8192))
			}
			got, want := NewCVU(capacity), newReferenceCVU(capacity)
			for step := 0; step < steps; step++ {
				op := randomOp(rnd)
				op.idx = pool[rnd.Intn(len(pool))]
				applyOp(t, step, op, got, want)
			}
		}
	}
}

// TestCVUDifferentialKeyShapes drives the two key shapes the full-key
// lookup depends on, at the Simple (32) and Constant/Limit (128) CVU sizes:
//
//   - strided: a few LVPT indices, each inserting a fresh strided address
//     every time (a strided load keeps its PC), so each receives more than
//     capacity distinct addresses and its index chain grows long while the
//     address-bucket chains stay short;
//   - shared: a handful of addresses each inserted under several indices,
//     so one bucket chain holds same-address entries that a lookup under
//     another index must not hit.
//
// Each shape also checks it really built what it claims.
func TestCVUDifferentialKeyShapes(t *testing.T) {
	steps := 6000
	if testing.Short() {
		steps = 2000
	}
	for _, capacity := range []int{32, 128} {
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("strided/cap%d/seed%d", capacity, seed), func(t *testing.T) {
				rnd := rand.New(rand.NewSource(seed*7919 + int64(capacity)))
				const indices = 3
				var next [indices]uint64 // inserts so far per index
				distinct := make(map[int]map[uint64]bool)
				got, want := NewCVU(capacity), newReferenceCVU(capacity)
				longest := 0
				for step := 0; step < steps; step++ {
					k := rnd.Intn(indices)
					stride := uint64(8 << k)
					base := 0x10000 + uint64(k)<<20
					op := cvuOp{idx: 100 + 37*k, size: 8}
					switch r := rnd.Intn(100); {
					case r < 45: // the next strided address
						op.kind = 1
						op.addr = base + stride*next[k]
						next[k]++
						if distinct[op.idx] == nil {
							distinct[op.idx] = map[uint64]bool{}
						}
						distinct[op.idx][op.addr] = true
					case r < 90: // a recent address: hits while resident
						op.kind = 0
						back := uint64(rnd.Intn(2*capacity)) + 1
						if back > next[k] {
							back = next[k]
						}
						op.addr = base + stride*(next[k]-back)
						if rnd.Intn(8) == 0 {
							op.idx = 100 + 37*((k+1)%indices) // right address, wrong index
						}
					case r < 99: // a store into the strided region
						op.kind = 2
						op.addr = base + stride*uint64(rnd.Intn(int(next[k])+1))
					default: // the load's value changed
						op.kind = 3
					}
					applyOp(t, step, op, got, want)
					for k := 0; k < indices; k++ {
						longest = max(longest, got.indexChainLen(100+37*k))
					}
				}
				for idx, addrs := range distinct {
					if len(addrs) <= capacity {
						t.Errorf("index %d received %d distinct addresses, want more than capacity %d", idx, len(addrs), capacity)
					}
				}
				if longest < capacity/2 {
					t.Errorf("longest index chain %d, want at least %d: the strided shape did not build long chains", longest, capacity/2)
				}
			})
			t.Run(fmt.Sprintf("shared/cap%d/seed%d", capacity, seed), func(t *testing.T) {
				rnd := rand.New(rand.NewSource(seed*104729 + int64(capacity)))
				addrs := []uint64{0x2000, 0x2008, 0x2010, 0x9000}
				got, want := NewCVU(capacity), newReferenceCVU(capacity)
				shared := false
				for step := 0; step < steps; step++ {
					op := cvuOp{
						addr: addrs[rnd.Intn(len(addrs))],
						idx:  rnd.Intn(12),
						size: []int{1, 4, 8}[rnd.Intn(3)],
					}
					switch r := rnd.Intn(100); {
					case r < 45:
						op.kind = 1
					case r < 90:
						op.kind = 0
					case r < 95:
						op.kind = 2
					default:
						op.kind = 3
					}
					applyOp(t, step, op, got, want)
					shared = shared || got.sameAddrInChain()
				}
				if !shared {
					t.Error("no bucket chain ever held one address under two indices")
				}
			})
		}
	}
}

// indexChainLen counts the entries chained under one LVPT index.
func (c *CVU) indexChainLen(index int) int {
	n := 0
	for e := c.indexHead(index); e >= 0; e = c.nodes[e].idxNext {
		n++
	}
	return n
}

// sameAddrInChain reports whether any address-bucket chain holds two
// entries with the same address (necessarily under different indices).
func (c *CVU) sameAddrInChain() bool {
	for _, h := range c.byBucket {
		seen := map[uint64]bool{}
		for n := int(h); n >= 0; n = c.nodes[n].bktNext {
			if seen[c.nodes[n].addr] {
				return true
			}
			seen[c.nodes[n].addr] = true
		}
	}
	return false
}

// TestCVUBucketCollisions forces byBucket collisions: every address comes
// from 8-byte buckets that hash to one slot, or from their neighbours, so
// chains mix buckets and InvalidateAddr must filter by address. The test
// also checks a chain really did hold entries from different buckets.
func TestCVUBucketCollisions(t *testing.T) {
	for _, capacity := range []int{1, 4, 32} {
		probe := NewCVU(capacity)
		slot := probe.bucketSlot(0x1000 >> 3)
		var colliding []uint64
		for b := uint64(0x1000 >> 3); len(colliding) < 12; b++ {
			if probe.bucketSlot(b) == slot {
				colliding = append(colliding, b)
			}
		}
		mixed := false
		for seed := int64(0); seed < 8; seed++ {
			rnd := rand.New(rand.NewSource(seed*31 + int64(capacity)))
			got, want := NewCVU(capacity), newReferenceCVU(capacity)
			for step := 0; step < 2000; step++ {
				op := cvuOp{kind: rnd.Intn(4), idx: rnd.Intn(6), size: 1 + rnd.Intn(16)}
				b := colliding[rnd.Intn(len(colliding))]
				if rnd.Intn(4) == 0 {
					b++ // a neighbouring bucket, reachable by wide stores
				}
				op.addr = b<<3 + uint64(rnd.Intn(8))
				applyOp(t, step, op, got, want)
				buckets := map[uint64]bool{}
				for n := int(got.byBucket[slot]); n >= 0; n = got.nodes[n].bktNext {
					buckets[got.nodes[n].addr>>3] = true
				}
				mixed = mixed || len(buckets) > 1
			}
		}
		if capacity > 1 && !mixed {
			t.Errorf("capacity %d: no chain ever held two buckets; the collisions were not forced", capacity)
		}
	}
}

// TestCVUInvalidateAddrBoundaries pins the overflow-safe overlap semantics
// at the edges: entries and stores hugging ^uint64(0), exact addr+size
// fencepost adjacency, and zero/negative sizes.
func TestCVUInvalidateAddrBoundaries(t *testing.T) {
	const max = ^uint64(0)
	cases := []struct {
		name        string
		entry       uint64
		store       uint64
		size        int
		wantRemoved int
	}{
		// Fenceposts around [store, store+size) vs entry [entry, entry+8).
		{"store ends exactly at entry", 0x100, 0xf8, 8, 0},
		{"store last byte reaches entry", 0x100, 0xf9, 8, 1},
		{"store begins at entry last byte", 0x107, 0x107, 1, 1},
		{"store begins one past entry", 0x108, 0x100, 8, 0},
		{"entry last byte touches store start", 0x100, 0x107, 4, 1},
		// Degenerate sizes behave like a 1-byte store.
		{"zero size inside entry", 0x100, 0x103, 0, 1},
		{"zero size past entry", 0x100, 0x108, 0, 0},
		{"negative size inside entry", 0x100, 0x107, -5, 1},
		// The overflow regime: the buggy predicate e.addr+8 > addr wrapped
		// here and missed genuine overlaps.
		{"entry at max, store at max", max, max, 1, 1},
		{"entry at max-7, store at max", max - 7, max, 8, 1},
		{"entry at max, store before it", max, max - 3, 2, 0},
		{"entry at max, wide store reaching it", max, max - 9, 16, 1},
		{"store footprint clips at max", max, max - 2, 8, 1},
		{"store at zero, entry at zero", 0, 0, 1, 1},
		{"store at zero misses entry 8", 8, 0, 8, 0},
		{"store at zero catches entry 7", 7, 0, 8, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCVU(8)
			c.Insert(tc.entry, 1)
			if got := c.InvalidateAddr(tc.store, tc.size); got != tc.wantRemoved {
				t.Errorf("entry %#x store %#x size %d: removed %d, want %d",
					tc.entry, tc.store, tc.size, got, tc.wantRemoved)
			}
			if want := 1 - tc.wantRemoved; c.Len() != want {
				t.Errorf("Len = %d, want %d", c.Len(), want)
			}
		})
	}
}

// TestCVUInsertRefresh pins the Inserts/Refreshes split: re-inserting a
// present pair refreshes recency but is not new insert pressure.
func TestCVUInsertRefresh(t *testing.T) {
	c := NewCVU(2)
	c.Insert(0x100, 1)
	c.Insert(0x100, 1) // refresh, not insert
	c.Insert(0x200, 2)
	st := c.Stats()
	if st.Inserts != 2 || st.Refreshes != 1 {
		t.Fatalf("Inserts = %d, Refreshes = %d, want 2 and 1", st.Inserts, st.Refreshes)
	}
	// The refresh must still update recency: (0x100, 1) was touched last
	// before (0x200, 2), so a third insert evicts... (0x100, 1)? No —
	// recency order is 0x100 (refreshed at t2) < 0x200 (t3), so the LRU
	// victim is (0x100, 1).
	c.Insert(0x300, 3)
	if c.Lookup(0x100, 1) {
		t.Fatal("refreshed-then-aged entry should have been the LRU victim")
	}
	if !c.Lookup(0x200, 2) || !c.Lookup(0x300, 3) {
		t.Fatal("younger entries must survive the eviction")
	}
	// And the mirror case: a refresh must be able to save an entry from
	// eviction.
	c2 := NewCVU(2)
	c2.Insert(0x100, 1)
	c2.Insert(0x200, 2)
	c2.Insert(0x100, 1) // refresh makes 0x100 MRU
	c2.Insert(0x300, 3) // evicts 0x200
	if !c2.Lookup(0x100, 1) {
		t.Fatal("refresh must protect the entry from LRU eviction")
	}
	if c2.Lookup(0x200, 2) {
		t.Fatal("unrefreshed entry should have been evicted")
	}
	if st := c2.Stats(); st.Inserts != 3 || st.Refreshes != 1 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want Inserts 3 Refreshes 1 Evictions 1", st)
	}
}

// TestCVUOpsAllocFree pins zero allocations on steady-state CVU operations:
// once the slab and maps have reached their high-water marks, Lookup,
// Insert (fresh, refresh and evicting), InvalidateAddr and InvalidateIndex
// must all run allocation-free.
func TestCVUOpsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c := NewCVU(32)
	rnd := rand.New(rand.NewSource(7))
	work := func() {
		switch rnd.Intn(5) {
		case 0:
			c.Lookup(0x1000+uint64(rnd.Intn(256)), rnd.Intn(16))
		case 1, 2:
			c.Insert(0x1000+uint64(rnd.Intn(256)), rnd.Intn(16))
		case 3:
			c.InvalidateAddr(0x1000+uint64(rnd.Intn(256)), 1+rnd.Intn(8))
		case 4:
			c.InvalidateIndex(rnd.Intn(16))
		}
	}
	// Warm-up: reach the slab high-water mark and populate every map key
	// the steady-state phase can touch.
	for i := 0; i < 20_000; i++ {
		work()
	}
	if avg := testing.AllocsPerRun(20_000, work); avg != 0 {
		t.Fatalf("steady-state CVU ops allocate %v allocs/op, want 0", avg)
	}
}
