package lvp

import "math/bits"

// CVU is the Constant Verification Unit (paper §3.3): a small
// fully-associative table of (data address, LVPT index) pairs. An entry
// asserts "the value cached at this LVPT index is coherent with memory at
// this address". Stores invalidate matching addresses; LVPT updates that
// change an entry's value invalidate matching indices. A constant load that
// hits the CVU is verified without accessing the memory hierarchy.
//
// The hardware is a CAM; the obvious software model is a linear scan per
// operation, which makes every Unit.Load pay O(capacity) on the constant
// path and every store pay O(capacity) again. This implementation instead
// exploits the same structure the paper's CAM matches on: entries are
// reachable through two secondary indexes — flat chain-head arrays, one a
// fixed power-of-two hash of the 8-byte address bucket (Lookup and Insert
// match the full (address, index) key on its chain; InvalidateAddr walks
// only the chains a store footprint can touch) and one indexed directly by
// LVPT index (InvalidateIndex) — and LRU eviction is O(1) via an intrusive
// recency list. All node storage lives in one slab that grows to at most
// `capacity` entries, so steady-state operations are allocation-free and no
// operation hashes through a Go map. The behavior is
// decision-for-decision identical to the linear-scan reference model
// (`referenceCVU` in cvu_diff_test.go), enforced by a randomized
// differential test.
type CVU struct {
	capacity int
	clock    uint64
	stats    CVUStats

	nodes []cvuNode // slab; grows to capacity, then recycles via free list
	free  int       // free-list head (chained through next), -1 = empty
	size  int       // live entries
	head  int       // most recently used, -1 = empty
	tail  int       // least recently used, -1 = empty

	// byIndex[i] heads the chain (idxPrev/idxNext) of entries at LVPT
	// index i, -1 when there are none. It starts empty and doubles to cover
	// the largest index inserted; InvalidateIndex treats an index beyond it
	// as an empty chain. Only InvalidateIndex walks it; it can grow toward
	// the capacity (see find).
	byIndex []int32
	// byBucket[bucketSlot(addr>>3)] heads the chain (bktPrev/bktNext) of
	// every entry whose 8-byte address bucket hashes to that slot, -1 when
	// empty. Its size is fixed at construction: a power of two at least
	// twice the capacity, so chains stay short. A chain can mix buckets and
	// hold one address under several indices; find matches both halves of
	// the key and InvalidateAddr filters by address, so a collision costs a
	// compare, never a wrong decision.
	byBucket    []int32
	bucketShift uint // 64 - log2(len(byBucket))
}

// CVUStats counts CAM events. Plain ints — one CVU per Unit per goroutine;
// aggregation into shared atomic counters happens once per annotation pass.
type CVUStats struct {
	Lookups int64
	Hits    int64
	Misses  int64
	// Inserts counts entries newly written into the CAM. Re-inserting a
	// pair that is already present only refreshes its LRU position and is
	// counted under Refreshes, so Inserts matches true insert pressure.
	Inserts   int64
	Refreshes int64
	// Evictions counts LRU capacity evictions on Insert. Invalidation
	// removals are counted separately: AddrInvalidated entries were
	// removed by store-address matches, IndexInvalidated by LVPT value
	// displacements.
	Evictions        int64
	AddrInvalidated  int64
	IndexInvalidated int64
}

// cvuNode is one slab slot: the entry payload plus its links in the LRU
// list, its LVPT-index chain and its address-bucket chain. A free slot is
// chained through next only.
type cvuNode struct {
	addr  uint64
	index int
	used  uint64 // LRU timestamp (kept for the reference differential)
	slot  int    // byBucket slot it is chained under

	prev, next       int // LRU list: prev toward MRU, next toward LRU
	idxPrev, idxNext int
	bktPrev, bktNext int
}

// NewCVU returns a CVU with the given capacity; capacity <= 0 disables it.
// LVPT indices must be non-negative.
func NewCVU(capacity int) *CVU {
	if capacity < 0 {
		capacity = 0
	}
	c := &CVU{capacity: capacity, free: -1, head: -1, tail: -1}
	if capacity > 0 {
		slots := 2
		for slots < 2*capacity {
			slots <<= 1
		}
		c.byBucket = make([]int32, slots)
		fillNone(c.byBucket)
		c.bucketShift = uint(64 - bits.TrailingZeros(uint(slots)))
	}
	return c
}

// fillNone marks every chain head empty.
func fillNone(heads []int32) {
	for i := range heads {
		heads[i] = -1
	}
}

// growIndex extends byIndex to cover indices [0, n).
func (c *CVU) growIndex(n int) {
	if n <= len(c.byIndex) {
		return
	}
	if n < 2*len(c.byIndex) {
		n = 2 * len(c.byIndex)
	}
	heads := make([]int32, n)
	fillNone(heads[copy(heads, c.byIndex):])
	c.byIndex = heads
}

// bucketSlot hashes an address bucket (addr>>3) onto a byBucket slot with a
// Fibonacci multiply, so strided addresses spread over the whole table.
func (c *CVU) bucketSlot(bucket uint64) int {
	return int((bucket * 0x9E3779B97F4A7C15) >> c.bucketShift)
}

// indexHead returns the head of index's chain, or -1.
func (c *CVU) indexHead(index int) int {
	if index >= len(c.byIndex) {
		return -1
	}
	return int(c.byIndex[index])
}

// find returns the slab slot holding (addr, index), or -1. The CAM key is
// the concatenation of address and index, so it walks the address-bucket
// chain — short by construction, being Fibonacci-hashed over at least twice
// as many slots as entries — and matches both halves. (The LVPT-index chain
// is no substitute: a strided load inserts a new address under one index
// every iteration, so that chain grows toward the capacity.)
func (c *CVU) find(addr uint64, index int) int {
	if c.size == 0 {
		return -1
	}
	for n := int(c.byBucket[c.bucketSlot(addr>>3)]); n >= 0; n = c.nodes[n].bktNext {
		if nd := &c.nodes[n]; nd.addr == addr && nd.index == index {
			return n
		}
	}
	return -1
}

// Lookup performs the CAM search on (addr, index) — the concatenation the
// paper describes — and refreshes the entry's LRU position on a hit.
func (c *CVU) Lookup(addr uint64, index int) bool {
	c.stats.Lookups++
	if n := c.find(addr, index); n >= 0 {
		c.clock++
		c.nodes[n].used = c.clock
		c.moveToFront(n)
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Insert records that the LVPT entry at index is verified-coherent with
// memory at addr. The least-recently-used entry is evicted when full.
// Inserting an already-present pair just refreshes its LRU position and is
// counted as a Refresh, not an Insert.
func (c *CVU) Insert(addr uint64, index int) {
	if c.capacity == 0 {
		return
	}
	c.clock++
	if n := c.find(addr, index); n >= 0 {
		c.stats.Refreshes++
		c.nodes[n].used = c.clock
		c.moveToFront(n)
		return
	}
	c.stats.Inserts++
	var n int
	switch {
	case c.free >= 0:
		n = c.free
		c.free = c.nodes[n].next
		c.size++
	case c.size < c.capacity:
		c.nodes = append(c.nodes, cvuNode{})
		n = len(c.nodes) - 1
		c.size++
	default:
		// Evict LRU: the list tail, in O(1).
		c.stats.Evictions++
		n = c.tail
		c.unlink(n)
	}
	nd := &c.nodes[n]
	nd.addr, nd.index, nd.used = addr, index, c.clock
	nd.slot = c.bucketSlot(addr >> 3)
	c.pushFront(n)
	c.linkIndex(n)
	c.linkBucket(n)
}

// InvalidateAddr removes every entry whose data address lies in the store's
// footprint [addr, addr+size). (A real CAM matches on cache-line or word
// granularity; we use exact byte-range overlap against the entry's load
// address, conservatively treating the entry as covering 8 bytes.) Both
// ranges clip at the top of the address space rather than wrapping, so an
// entry or store footprint near ^uint64(0) matches exactly the bytes it
// covers. It returns the number of entries removed.
func (c *CVU) InvalidateAddr(addr uint64, size int) int {
	if size <= 0 {
		size = 1
	}
	// An entry covers [e.addr, e.addr+8) and the store covers
	// [addr, addr+size), both clipped at ^uint64(0). They overlap exactly
	// when e.addr lands in [lo, hi]:
	lo := uint64(0)
	if addr >= 7 {
		lo = addr - 7
	}
	hi := addr + uint64(size) - 1
	if hi < addr {
		hi = ^uint64(0) // store footprint clips at the top
	}
	removed := 0
	if c.size > 0 {
		loB, hiB := lo>>3, hi>>3
		if hiB-loB+1 > uint64(c.size) {
			// A store footprint wider than the occupancy: walking the
			// live entries is cheaper than walking the buckets.
			for n := c.head; n >= 0; {
				next := c.nodes[n].next
				if a := c.nodes[n].addr; a >= lo && a <= hi {
					c.remove(n)
					removed++
				}
				n = next
			}
		} else {
			for b := loB; ; b++ {
				for n := int(c.byBucket[c.bucketSlot(b)]); n >= 0; {
					next := c.nodes[n].bktNext
					if a := c.nodes[n].addr; a >= lo && a <= hi {
						c.remove(n)
						removed++
					}
					n = next
				}
				if b == hiB {
					break
				}
			}
		}
	}
	c.stats.AddrInvalidated += int64(removed)
	return removed
}

// InvalidateIndex removes every entry referring to the given LVPT index;
// called when that LVPT entry's value changes, so a stale CVU entry can
// never vouch for a value that is no longer in the table. The index chain
// holds exactly the matching entries, so the cost is the number removed.
func (c *CVU) InvalidateIndex(index int) int {
	removed := 0
	if c.size > 0 {
		for n := c.indexHead(index); n >= 0; {
			next := c.nodes[n].idxNext
			c.remove(n)
			removed++
			n = next
		}
	}
	c.stats.IndexInvalidated += int64(removed)
	return removed
}

// Len reports the current occupancy.
func (c *CVU) Len() int { return c.size }

// Stats returns the accumulated CAM counters.
func (c *CVU) Stats() CVUStats { return c.stats }

// --- intrusive-list plumbing ---

// pushFront makes n the MRU end of the recency list.
func (c *CVU) pushFront(n int) {
	nd := &c.nodes[n]
	nd.prev, nd.next = -1, c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = n
	}
	c.head = n
	if c.tail < 0 {
		c.tail = n
	}
}

// moveToFront refreshes n's recency without touching the chains.
func (c *CVU) moveToFront(n int) {
	if c.head == n {
		return
	}
	nd := &c.nodes[n]
	if nd.prev >= 0 {
		c.nodes[nd.prev].next = nd.next
	}
	if nd.next >= 0 {
		c.nodes[nd.next].prev = nd.prev
	} else {
		c.tail = nd.prev
	}
	c.pushFront(n)
}

// linkIndex chains n at the head of its LVPT-index chain.
func (c *CVU) linkIndex(n int) {
	nd := &c.nodes[n]
	c.growIndex(nd.index + 1)
	h := int(c.byIndex[nd.index])
	nd.idxPrev, nd.idxNext = -1, h
	if h >= 0 {
		c.nodes[h].idxPrev = n
	}
	c.byIndex[nd.index] = int32(n)
}

// linkBucket chains n at the head of its address-bucket slot's chain.
func (c *CVU) linkBucket(n int) {
	nd := &c.nodes[n]
	h := int(c.byBucket[nd.slot])
	nd.bktPrev, nd.bktNext = -1, h
	if h >= 0 {
		c.nodes[h].bktPrev = n
	}
	c.byBucket[nd.slot] = int32(n)
}

// unlink detaches n from the recency list and both chains, fixing up the
// chain heads (-1 once a chain empties). The slot itself is not recycled.
func (c *CVU) unlink(n int) {
	nd := &c.nodes[n]
	if nd.prev >= 0 {
		c.nodes[nd.prev].next = nd.next
	} else {
		c.head = nd.next
	}
	if nd.next >= 0 {
		c.nodes[nd.next].prev = nd.prev
	} else {
		c.tail = nd.prev
	}
	if nd.idxPrev >= 0 {
		c.nodes[nd.idxPrev].idxNext = nd.idxNext
	} else {
		c.byIndex[nd.index] = int32(nd.idxNext)
	}
	if nd.idxNext >= 0 {
		c.nodes[nd.idxNext].idxPrev = nd.idxPrev
	}
	if nd.bktPrev >= 0 {
		c.nodes[nd.bktPrev].bktNext = nd.bktNext
	} else {
		c.byBucket[nd.slot] = int32(nd.bktNext)
	}
	if nd.bktNext >= 0 {
		c.nodes[nd.bktNext].bktPrev = nd.bktPrev
	}
}

// remove invalidates slot n: unlink everywhere and recycle onto the free
// list.
func (c *CVU) remove(n int) {
	c.unlink(n)
	c.nodes[n].next = c.free
	c.free = n
	c.size--
}
