// Package ppc620 is the trace-driven, cycle-level timing model of the
// PowerPC 620 (paper §4.1) and its enhanced 620+ variant, with optional Load
// Value Prediction integration.
//
// Modelled mechanisms: 4-wide fetch/dispatch/completion, per-functional-unit
// reservation stations, GPR/FPR rename buffers, a completion buffer with
// in-order completion, BHT+BTB+RAS branch prediction with fetch redirect on
// mispredict, a non-blocking dual-banked L1 with an L2 behind it, store
// commit at completion with bank-conflict accounting, and the paper's LVP
// semantics: values forwarded speculatively at dispatch, verified one cycle
// after the actual value returns, dependent instructions holding their
// reservation stations until verification, and a one-cycle reissue penalty
// on misprediction. Constant-verified loads (CVU) skip the cache entirely.
//
// Memory ordering: stores issue in order among stores, but a load may issue
// past an older store whose address is not yet known. An older overlapping
// store that has executed forwards its data from the pending-store queue;
// one that has not cannot be seen when the load issues, and the 620's
// store-to-load alias detection refetches the load once the store's
// address is generated (Stats.AliasRefetches).
package ppc620

import (
	"lvp/internal/cache"
	"lvp/internal/isa"
)

// FU enumerates the 620's functional unit types.
type FU int

// Functional units (paper Figure 4).
const (
	SCFX FU = iota // single-cycle integer (two units)
	MCFX           // multi-cycle integer
	FPU            // floating point
	LSU            // load/store
	BRU            // branch
	NumFU
)

func (f FU) String() string {
	switch f {
	case SCFX:
		return "SCFX"
	case MCFX:
		return "MCFX"
	case FPU:
		return "FPU"
	case LSU:
		return "LSU"
	case BRU:
		return "BRU"
	}
	return "FU?"
}

// Config holds the machine parameters for the 620 or 620+.
type Config struct {
	Name          string
	FetchWidth    int
	DispatchWidth int
	CompleteWidth int
	FetchBuffer   int
	// RS is the number of reservation-station entries per FU type
	// (pooled across that type's units).
	RS [NumFU]int
	// Units is the number of execution units per FU type.
	Units [NumFU]int
	// GPRRename and FPRRename are rename-buffer counts.
	GPRRename int
	FPRRename int
	// Completion is the completion (reorder) buffer size.
	Completion int
	// MaxLoadDispatch and MaxStoreDispatch bound memory-op dispatch per
	// cycle. The 620 dispatches at most one load and one store; the 620+
	// relaxes this to two of either.
	MaxLoadDispatch  int
	MaxStoreDispatch int
	RelaxedLS        bool // 620+: the two slots are interchangeable

	// Cache geometry and latencies.
	L1         cache.Config
	L2         cache.Config
	L1Latency  int // load-to-use on L1 hit: the load row of Latencies
	L2Latency  int
	MemLatency int
	// MSHRs bounds outstanding L1 misses (the 620's non-blocking cache
	// is not infinitely non-blocking); further missing loads wait for a
	// miss register to free.
	MSHRs int
}

// Config620 returns the base PowerPC 620 model parameters.
func Config620() Config {
	return Config{
		Name:             "620",
		FetchWidth:       4,
		DispatchWidth:    4,
		CompleteWidth:    4,
		FetchBuffer:      8,
		RS:               [NumFU]int{SCFX: 4, MCFX: 2, FPU: 2, LSU: 3, BRU: 4},
		Units:            [NumFU]int{SCFX: 2, MCFX: 1, FPU: 1, LSU: 1, BRU: 1},
		GPRRename:        8,
		FPRRename:        8,
		Completion:       16,
		MaxLoadDispatch:  1,
		MaxStoreDispatch: 1,
		L1: cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64,
			Assoc: 8, Banks: 2},
		L2: cache.Config{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64,
			Assoc: 4, Banks: 1},
		L1Latency:  2,
		L2Latency:  8,
		MemLatency: 40,
		MSHRs:      4,
	}
}

// Config620Plus returns the paper's "next-generation" 620+: doubled
// reservation stations, rename buffers and completion buffer, a second
// load/store unit (without an extra cache port), and relaxed load/store
// dispatch (§4.1).
func Config620Plus() Config {
	c := Config620()
	c.Name = "620+"
	for f := range c.RS {
		c.RS[f] *= 2
	}
	c.Units[LSU] = 2
	c.GPRRename = 16
	c.FPRRename = 16
	c.Completion = 32
	c.MaxLoadDispatch = 2
	c.MaxStoreDispatch = 2
	c.RelaxedLS = true
	return c
}

// Latencies returns the 620's column of paper Table 5: the one description
// of its instruction latencies that the model, the dataflow limit and the
// printed table read. A row whose issue interval exceeds 1 holds its unit
// for that long: the MCFX is not pipelined, nor is the FPU for divide and
// square root. The paper gives complex integer as a range; multiply takes
// the 620 class of cores' mull latency and divide the range's upper bound.
func (c Config) Latencies() isa.Latencies {
	pipelined := func(result int) isa.Latency { return isa.Latency{Issue: 1, Result: result} }
	held := func(result int) isa.Latency { return isa.Latency{Issue: result, Result: result} }
	return isa.Latencies{
		SimpleInt: pipelined(1), Mul: held(4), Div: held(35),
		Load: pipelined(c.L1Latency), Store: pipelined(1), // a store's result is its address
		SimpleFP: pipelined(3), ComplexFP: held(18), Branch: pipelined(1),
	}
}
