// Package axp21164 is the trace-driven, cycle-level timing model of the
// Alpha AXP 21164 as configured in the paper (§4.2): a 4-issue, strictly
// in-order, deeply pipelined core with a dual-ported 8KB direct-mapped L1
// data cache, a 96KB 3-way on-chip L2, and — following the paper's baseline
// — no MAF, so L1 data misses block the pipe.
//
// LVP integration (§4.2): predictions are made at dispatch and verified in
// an extra compare stage before writeback. A misprediction squashes all (up
// to eight) instructions in flight and redispatches them from the reissue
// buffer with a single-cycle penalty. Loads that miss the L1 are not
// predicted — the machine returns to the non-speculative state before the
// miss is serviced, so there is no penalty — except for CVU-verified
// constants, which complete without accessing the memory system at all (the
// model's "zero-cycle load").
package axp21164

import (
	"fmt"
	"log/slog"

	"lvp/internal/bpred"
	"lvp/internal/cache"
	"lvp/internal/isa"
	"lvp/internal/obs"
	"lvp/internal/trace"
)

// Config holds the 21164 machine parameters.
type Config struct {
	Name        string
	IssueWidth  int // total issue slots per cycle
	IntSlots    int // integer/branch/memory pipes (E0/E1)
	FPSlots     int // FP pipes (FA/FM)
	MemPerCycle int // loads+stores per cycle (dual-ported L1)

	L1         cache.Config
	L2         cache.Config
	L1Latency  int
	L2Latency  int
	MemLatency int

	BranchPenalty  int // Table 5: 4 cycles on mispredict
	ReissuePenalty int // single-cycle redispatch from the reissue buffer

	// NonBlocking restores the real 21164's MAF (miss address file),
	// which the paper's baseline deliberately omits (§4.2): misses no
	// longer stall the pipe, only their dependents wait. Used by the
	// MAF ablation, not by paper experiments.
	NonBlocking bool
}

// Config21164 returns the paper's baseline 21164 parameters.
func Config21164() Config {
	return Config{
		Name:        "21164",
		IssueWidth:  4,
		IntSlots:    2,
		FPSlots:     2,
		MemPerCycle: 2,
		L1: cache.Config{Name: "L1D", SizeBytes: 8 << 10, LineBytes: 32,
			Assoc: 1, Banks: 1},
		L2: cache.Config{Name: "L2", SizeBytes: 96 << 10, LineBytes: 64,
			Assoc: 3, Banks: 1}, // 96KB 3-way on-chip S-cache
		L1Latency:  2,
		L2Latency:  8,
		MemLatency: 40,

		BranchPenalty:  4,
		ReissuePenalty: 1,
	}
}

// Stats is everything one 21164 run reports.
type Stats struct {
	Machine      string
	LVPConfig    string
	Cycles       int
	Instructions int

	LoadStates [trace.NumPredStates]int
	// PredictionsCancelled counts predictions dropped because the load
	// missed the L1 (paper §4.2: no penalty).
	PredictionsCancelled int
	// Squashes counts reissue-buffer redispatches (mispredicted values).
	Squashes int
	// MissStallCycles counts cycles lost to blocking L1 misses.
	MissStallCycles int

	L1     cache.Stats
	L2     cache.Stats
	Branch bpred.Stats
}

// IPC is instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// L1MissesPerInstruction is the paper's §6.1 metric ("miss rate ... per
// instruction").
func (s Stats) L1MissesPerInstruction() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.L1.Misses) / float64(s.Instructions)
}

// Latencies returns the 21164's column of paper Table 5: the one description
// of its instruction latencies that the model and the printed table read.
// Every row issues at interval 1: the in-order model pipelines every unit.
// Multiply takes the 21164's mull latency, divide the paper's class bound
// of 16, and complex FP the low end of its range.
func (c Config) Latencies() isa.Latencies {
	pipelined := func(result int) isa.Latency { return isa.Latency{Issue: 1, Result: result} }
	return isa.Latencies{
		SimpleInt: pipelined(1), Mul: pipelined(8), Div: pipelined(16),
		Load: pipelined(c.L1Latency), Store: pipelined(1),
		SimpleFP: pipelined(4), ComplexFP: pipelined(36), Branch: pipelined(1),
	}
}

// rowInfo is what the issue loop needs of one static row, derived once per
// run from the isa switch functions and the machine's Latencies.
type rowInfo struct {
	lat   int32
	flags uint8
	src   [2]uint8 // scoreboard slots read (isa.Sources order); 0 = none
	dst   uint8    // scoreboard slot written (isa.Dest); 0 = none
}

const (
	aFP uint8 = 1 << iota
	aLoad
	aStore
	aBranch
)

// rowInfos derives one rowInfo per static row, its latencies from lat.
func rowInfos(static []trace.Record, lat isa.Latencies) []rowInfo {
	rows := make([]rowInfo, len(static))
	for j := range static {
		r, info := &static[j], &rows[j]
		info.lat = int32(lat.Result(r.Op))
		info.src, info.dst = isa.Slots(r.Inst())
		switch {
		case isFP(r.Op):
			info.flags = aFP
		case isa.IsLoad(r.Op):
			info.flags = aLoad
		case isa.IsStore(r.Op):
			info.flags = aStore
		case isa.IsBranch(r.Op):
			info.flags = aBranch
		}
	}
	return rows
}

// Simulate runs trace t, annotated by ann, through the in-order model and
// returns its statistics; lvpName labels the run. The machine is a strict
// forward pass over t's rows and memory-op lanes, read in place. A nil ann
// models a machine without LVP hardware; a non-nil ann must hold one state
// per record, or Simulate returns trace.ErrAnnotationLength with zero Stats.
// obsTr, when non-nil, receives value-misprediction squashes and cancelled
// predictions on the sim channel and L1 misses on the cache channel.
func Simulate(t *trace.Trace, ann trace.Annotation, cfg Config, lvpName string, obsTr *obs.Tracer) (Stats, error) {
	if err := t.CheckAnnotation(ann); err != nil {
		return Stats{}, err
	}
	hier := &cache.Hierarchy{
		L1:        cache.MustNew(cfg.L1),
		L2:        cache.MustNew(cfg.L2),
		L1Latency: cfg.L1Latency, L2Latency: cfg.L2Latency, MemLatency: cfg.MemLatency,
		Tracer: obsTr,
	}
	bp := bpred.New(bpred.Default21164)
	st := Stats{Machine: cfg.Name, LVPConfig: lvpName, Instructions: t.Len()}
	static, w := t.Static(), t.Walk()
	rows := rowInfos(static, cfg.Latencies())
	var br trace.Record // the branch the loop last rebuilt

	// ready[slot] is the cycle a register's value is available; slot 0
	// (GPR R0) is never written, so it is always ready.
	var ready [isa.NumSlots]int
	cycle := 0
	barrier := 0 // no instruction may issue before this cycle
	intUsed, fpUsed, memUsed, totalUsed := 0, 0, 0, 0

	advance := func(to int) {
		if to <= cycle {
			to = cycle + 1
		}
		cycle = to
		intUsed, fpUsed, memUsed, totalUsed = 0, 0, 0, 0
	}

	for i := range t.Len() {
		row := w.Next()
		info := &rows[row]
		f := info.flags

		// Earliest cycle the operands allow (strict in-order).
		start := max(cycle, barrier, ready[info.src[0]], ready[info.src[1]])
		if start > cycle {
			advance(start)
		}
		// Slot constraints.
		fp := f&aFP != 0
		mem := f&(aLoad|aStore) != 0
		for totalUsed >= cfg.IssueWidth ||
			(mem && memUsed >= cfg.MemPerCycle) ||
			(fp && fpUsed >= cfg.FPSlots) ||
			(!fp && intUsed >= cfg.IntSlots) {
			advance(cycle + 1)
			if cycle < barrier {
				advance(barrier)
			}
		}

		// Issue at `cycle`.
		totalUsed++
		if fp {
			fpUsed++
		} else {
			intUsed++
		}
		done := cycle + int(info.lat)

		switch f {
		case aLoad:
			memUsed++
			pred := trace.PredNone
			if ann != nil {
				pred = ann[i]
			}
			done, barrier = issueLoad(static[row].PC, w.Addr(), pred, cycle, barrier, cfg, hier, &st, obsTr)
		case aStore:
			memUsed++
			hier.Access(w.Addr())
		case aBranch:
			if w.Branch(&br); bp.Resolve(&br) {
				// Redirect after resolution (Table 5: 0/4).
				barrier = max(barrier, cycle+1+cfg.BranchPenalty)
			}
		}

		// Destination availability (isa.Dest).
		if info.dst != 0 {
			ready[info.dst] = done
		}
	}
	st.Cycles = cycle + 1
	st.L1 = hier.L1.Stats()
	st.L2 = hier.L2.Stats()
	st.Branch = bp.Stats()
	return st, nil
}

// issueLoad handles one load under the paper's 21164 LVP rules and returns
// the cycle its value is available plus the updated issue barrier.
func issueLoad(pc, addr uint64, pred trace.PredState, cycle, barrier int,
	cfg Config, hier *cache.Hierarchy, st *Stats, otr *obs.Tracer) (done int, newBarrier int) {
	newBarrier = barrier
	switch pred {
	case trace.PredConstant:
		// CVU-verified: completes without touching the memory system,
		// even if it would have missed (§4.2). Zero-cycle load.
		st.LoadStates[pred]++
		return cycle, newBarrier
	case trace.PredCorrect, trace.PredIncorrect:
		if !hier.ProbeL1(addr) {
			// The 21164 cannot stall past dispatch, so predictions
			// on L1 misses are cancelled before any harm (§4.2).
			st.PredictionsCancelled++
			if otr.Enabled(obs.ChanSim) {
				otr.Emit(obs.ChanSim, "prediction-cancelled",
					slog.String("pc", fmt.Sprintf("%#x", pc)),
					slog.String("addr", fmt.Sprintf("%#x", addr)),
					slog.Int("cycle", cycle))
			}
			st.LoadStates[trace.PredNone]++
			res := hier.Access(addr)
			done = cycle + res.Latency
			if !cfg.NonBlocking {
				// Blocking miss: nothing issues until the fill.
				st.MissStallCycles += res.Latency
				newBarrier = max(newBarrier, done)
			}
			return done, newBarrier
		}
		res := hier.Access(addr) // L1 hit
		st.LoadStates[pred]++
		if pred == trace.PredCorrect {
			// Dependents consumed the value at dispatch: the
			// zero-cycle load of Austin & Sohi the paper cites.
			return cycle, newBarrier
		}
		// Mispredict: discovered in the compare stage after the data
		// returns; everything in flight squashes and redispatches
		// with a one-cycle penalty.
		st.Squashes++
		done = cycle + res.Latency
		newBarrier = max(newBarrier, done+1+cfg.ReissuePenalty)
		if otr.Enabled(obs.ChanSim) {
			otr.Emit(obs.ChanSim, "value-squash",
				slog.String("pc", fmt.Sprintf("%#x", pc)),
				slog.String("addr", fmt.Sprintf("%#x", addr)),
				slog.Int("cycle", cycle),
				slog.Int("reissue_at", newBarrier))
		}
		return done, newBarrier
	default:
		st.LoadStates[trace.PredNone]++
		res := hier.Access(addr)
		done = cycle + res.Latency
		if !res.L1Hit && !cfg.NonBlocking {
			st.MissStallCycles += res.Latency
			newBarrier = max(newBarrier, done) // blocking miss, no MAF
		}
		return done, newBarrier
	}
}

func isFP(op isa.Op) bool {
	c := isa.ClassOf(op)
	return c == isa.ClassSimpleFP || c == isa.ClassComplexFP
}
