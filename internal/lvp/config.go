// Package lvp implements the paper's primary contribution: the Load Value
// Prediction Unit (§3), composed of
//
//   - the LVPT (Load Value Prediction Table, §3.1) — a direct-mapped,
//     untagged value-history table indexed by load instruction address;
//   - the LCT (Load Classification Table, §3.2) — a direct-mapped table of
//     n-bit saturating counters classifying each static load as
//     unpredictable, predictable, or constant;
//   - the CVU (Constant Verification Unit, §3.3) — a small fully-associative
//     memory of (data address, LVPT index) pairs that lets constant loads
//     verify without touching the memory hierarchy.
//
// Following the paper's experimental framework (§5), the unit is driven over
// an instruction trace and annotates every load with one of four states
// (trace.PredState); the cycle-accurate machine models then consume the
// annotated trace.
package lvp

import (
	"fmt"

	"lvp/internal/locality"
)

// Config describes one LVP Unit configuration (paper Table 2).
type Config struct {
	// Name identifies the configuration ("Simple", "Constant", "Limit",
	// "Perfect").
	Name string
	// LVPTEntries is the number of direct-mapped LVPT entries (power of
	// two). Ignored when Perfect.
	LVPTEntries int
	// HistoryDepth is the number of values kept per LVPT entry, 1 to
	// locality.MaxDepth. A depth greater than one implies the paper's
	// hypothetical perfect selection mechanism: the prediction is correct
	// whenever the actual value appears anywhere in the history.
	HistoryDepth int
	// LCTEntries is the number of direct-mapped LCT entries (power of
	// two). Ignored when Perfect.
	LCTEntries int
	// LCTBits is the saturating-counter width (1 or 2).
	LCTBits int
	// CVUEntries is the capacity of the CVU's associative table; zero
	// disables constant verification entirely.
	CVUEntries int
	// LVPTStyle selects the value-table organisation: "" or StyleDirect
	// is the paper's untagged direct-mapped table; StyleTagged adds
	// partial tags (direct-mapped, 1-way); StyleAssoc is an n-way
	// set-associative table with partial tags and per-set LRU.
	LVPTStyle string
	// LVPTWays is the associativity for StyleAssoc (power of two >= 2
	// dividing LVPTEntries); ignored otherwise.
	LVPTWays int
	// LVPTTagBits is the partial-tag width for the tagged/assoc styles
	// (1..32; 0 selects DefaultTagBits). Ignored for StyleDirect.
	LVPTTagBits int
	// Perfect short-circuits the tables: every load value is predicted
	// correctly, and no loads are classified as constants (paper's
	// "Perfect" row).
	Perfect bool
}

// LVPT organisation styles (Config.LVPTStyle).
const (
	StyleDirect = "direct"
	StyleTagged = "tagged"
	StyleAssoc  = "assoc"
)

// The four configurations of paper Table 2.
var (
	Simple   = Config{Name: "Simple", LVPTEntries: 1024, HistoryDepth: 1, LCTEntries: 256, LCTBits: 2, CVUEntries: 32}
	Constant = Config{Name: "Constant", LVPTEntries: 1024, HistoryDepth: 1, LCTEntries: 256, LCTBits: 1, CVUEntries: 128}
	Limit    = Config{Name: "Limit", LVPTEntries: 4096, HistoryDepth: 16, LCTEntries: 1024, LCTBits: 2, CVUEntries: 128}
	Perfect  = Config{Name: "Perfect", Perfect: true}
)

// Configs lists the paper's configurations in Table 2 order.
var Configs = []Config{Simple, Constant, Limit, Perfect}

// Tagged and set-associative LVPT ablations of the Simple configuration:
// the same storage budget re-organised so aliasing becomes detectable
// (SimpleTagged) and then avoidable (SimpleAssoc4's 4-way LRU sets). They
// are not paper rows — Table 2 stays as published — but they are full
// first-class configurations: annotatable, simulatable on every machine
// model, and selectable by name in the lvpd job spec.
var (
	SimpleTagged = Config{Name: "SimpleTagged", LVPTEntries: 1024, HistoryDepth: 1,
		LCTEntries: 256, LCTBits: 2, CVUEntries: 32,
		LVPTStyle: StyleTagged, LVPTTagBits: DefaultTagBits}
	SimpleAssoc4 = Config{Name: "SimpleAssoc4", LVPTEntries: 1024, HistoryDepth: 1,
		LCTEntries: 256, LCTBits: 2, CVUEntries: 32,
		LVPTStyle: StyleAssoc, LVPTWays: 4, LVPTTagBits: DefaultTagBits}
)

// AblationConfigs lists the non-paper configurations resolvable by name.
var AblationConfigs = []Config{SimpleTagged, SimpleAssoc4}

// ByName returns the named configuration, searching the paper's Table 2
// rows first and then the registered ablation configurations.
func ByName(name string) (Config, error) {
	for _, c := range Configs {
		if c.Name == name {
			return c, nil
		}
	}
	for _, c := range AblationConfigs {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("lvp: unknown configuration %q", name)
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.Perfect {
		return nil
	}
	if c.LVPTEntries <= 0 || c.LVPTEntries&(c.LVPTEntries-1) != 0 {
		return fmt.Errorf("lvp: LVPTEntries must be a positive power of two, got %d", c.LVPTEntries)
	}
	if c.LCTEntries <= 0 || c.LCTEntries&(c.LCTEntries-1) != 0 {
		return fmt.Errorf("lvp: LCTEntries must be a positive power of two, got %d", c.LCTEntries)
	}
	if c.HistoryDepth < 1 || c.HistoryDepth > locality.MaxDepth {
		return fmt.Errorf("lvp: HistoryDepth must be in [1,%d] (locality.MaxDepth), got %d", locality.MaxDepth, c.HistoryDepth)
	}
	if c.LCTBits < 1 || c.LCTBits > 8 {
		return fmt.Errorf("lvp: LCTBits must be in [1,8], got %d", c.LCTBits)
	}
	if c.CVUEntries < 0 {
		return fmt.Errorf("lvp: CVUEntries must be >= 0, got %d", c.CVUEntries)
	}
	switch c.LVPTStyle {
	case "", StyleDirect:
	case StyleTagged, StyleAssoc:
		if c.LVPTTagBits < 0 || c.LVPTTagBits > 32 {
			return fmt.Errorf("lvp: LVPTTagBits must be in [0,32], got %d", c.LVPTTagBits)
		}
		if c.LVPTStyle == StyleAssoc {
			w := c.LVPTWays
			if w < 2 || w&(w-1) != 0 || w > c.LVPTEntries {
				return fmt.Errorf("lvp: LVPTWays must be a power of two in [2,LVPTEntries], got %d", w)
			}
		}
	default:
		return fmt.Errorf("lvp: unknown LVPTStyle %q (want %q, %q or %q)",
			c.LVPTStyle, StyleDirect, StyleTagged, StyleAssoc)
	}
	return nil
}

// newValueTable builds the value table the configuration selects.
func newValueTable(c Config) ValueTable {
	switch c.LVPTStyle {
	case StyleTagged:
		return NewTaggedLVPT(c.LVPTEntries, c.HistoryDepth, c.LVPTTagBits)
	case StyleAssoc:
		return NewAssocLVPT(c.LVPTEntries, c.LVPTWays, c.HistoryDepth, c.LVPTTagBits)
	}
	return NewLVPT(c.LVPTEntries, c.HistoryDepth)
}
