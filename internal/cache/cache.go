// Package cache provides the memory-hierarchy substrate for the timing
// models: set-associative caches with LRU replacement, bank accounting for
// the PowerPC 620's dual-banked L1, and a two-level hierarchy returning
// per-access latencies.
package cache

import (
	"fmt"
	"log/slog"

	"lvp/internal/obs"
)

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int // ways; 1 = direct-mapped
	Banks     int // 1 = unbanked; 2 = the 620's dual-banked L1
}

// Validate checks structural consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: size/line/assoc must be positive", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache %s: size %d not a multiple of line size %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	sets := lines / c.Assoc
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a positive power of two", c.Name, sets)
	}
	if c.Banks < 1 {
		return fmt.Errorf("cache %s: banks must be >= 1", c.Name)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Accesses int
	Misses   int
	// Evictions counts valid lines displaced by miss fills (capacity and
	// conflict replacement; cold fills into invalid lines are not
	// evictions).
	Evictions int
}

// Hits is Accesses - Misses.
func (s Stats) Hits() int { return s.Accesses - s.Misses }

// MissRate is misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// line is one cache line: its tag and the clock of its last access, 0 while
// the line is invalid (Access bumps the clock before every fill).
type line struct{ tag, used uint64 }

// Cache is one set-associative level.
type Cache struct {
	cfg      Config
	lines    []line // set s is lines[s*Assoc : (s+1)*Assoc]
	setMask  uint64
	lineBits uint
	clock    uint64
	stats    Stats
}

// New builds a cache from a validated config.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	lb := uint(0)
	for 1<<lb < cfg.LineBytes {
		lb++
	}
	return &Cache{cfg: cfg, lines: make([]line, lines), setMask: uint64(lines/cfg.Assoc - 1), lineBits: lb}, nil
}

// MustNew is New but panics on error (for fixed machine-model configs).
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Bank reports which bank the address maps to (line-interleaved).
func (c *Cache) Bank(addr uint64) int {
	return int((addr >> c.lineBits) % uint64(c.cfg.Banks))
}

// Access looks up addr, allocating the line on miss (write-allocate for
// both reads and writes), and reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	c.stats.Accesses++
	tag := addr >> c.lineBits
	set := c.set(tag)
	for i := range set {
		if set[i].used != 0 && set[i].tag == tag {
			set[i].used = c.clock
			return true
		}
	}
	c.stats.Misses++
	victim := 0
	for i := range set {
		if set[i].used == 0 {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	if set[victim].used != 0 {
		c.stats.Evictions++
	}
	set[victim] = line{tag: tag, used: c.clock}
	return false
}

// set returns the ways of tag's set.
func (c *Cache) set(tag uint64) []line {
	s := int(tag&c.setMask) * c.cfg.Assoc
	return c.lines[s : s+c.cfg.Assoc]
}

// Probe checks for a hit without updating LRU or statistics.
func (c *Cache) Probe(addr uint64) bool {
	tag := addr >> c.lineBits
	for _, l := range c.set(tag) {
		if l.used != 0 && l.tag == tag {
			return true
		}
	}
	return false
}

// Hierarchy is a two-level cache plus memory, returning access latencies.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache
	// Latencies are load-to-use cycles for an access satisfied at each
	// level.
	L1Latency  int
	L2Latency  int
	MemLatency int
	// Tracer, when set with the cache channel enabled, emits one event
	// per L1 miss naming the level that satisfied the access.
	Tracer *obs.Tracer
}

// AccessResult describes where an access was satisfied.
type AccessResult struct {
	Latency int
	L1Hit   bool
	L2Hit   bool
}

// Access performs a load or store lookup through the hierarchy.
func (h *Hierarchy) Access(addr uint64) AccessResult {
	if h.L1.Access(addr) {
		return AccessResult{Latency: h.L1Latency, L1Hit: true}
	}
	res := AccessResult{Latency: h.MemLatency}
	level := "mem"
	if h.L2 != nil && h.L2.Access(addr) {
		res = AccessResult{Latency: h.L2Latency, L2Hit: true}
		level = "l2"
	}
	if h.Tracer.Enabled(obs.ChanCache) {
		h.Tracer.Emit(obs.ChanCache, "l1-miss",
			slog.String("addr", fmt.Sprintf("%#x", addr)),
			slog.String("filled_by", level),
			slog.Int("latency", res.Latency))
	}
	return res
}

// ProbeL1 checks whether addr would hit in the L1 without side effects
// (used by the 21164 model, which cancels predictions for loads that will
// miss).
func (h *Hierarchy) ProbeL1(addr uint64) bool { return h.L1.Probe(addr) }
