package ppc620

import (
	"fmt"
	"log/slog"

	"lvp/internal/bpred"
	"lvp/internal/cache"
	"lvp/internal/isa"
	"lvp/internal/obs"
	"lvp/internal/trace"
)

const unknown = -1

// entry is one dynamic instruction flowing through the machine. It keeps
// only what the model consults after fetch, copied from the instruction's
// rowInfo and the memory-op lanes: pc for event tracing, addr/size for the
// memory disambiguation logic, the scoreboard slots for dispatch-time
// dependence capture, and the pre-resolved issue interval and latency.
type entry struct {
	pc   uint64
	addr uint64

	idx int // absolute entry index of the current occupant (slot-reuse guard)

	dispatchC int
	issueC    int
	doneC     int // result produced (cache data back, ALU result, ...)
	verifyC   int // predicted loads: value comparison / CVU match done
	readyMax  int // latest source-ready cycle observed (Figure 8)

	srcA, srcB int // producer entry indices, or -1
	specSrc    int // unverified predicted load this instruction depends on, or -1

	resultReadyC int // cycle dependents may consume the result (unknown until set)

	aliasStore int // conflicting older store detected by the alias logic

	lat   int32
	flags uint16 // the rowInfo flag set
	issue uint16 // issue interval: cycles the instruction holds its unit
	fu    FU

	src  [2]uint8 // scoreboard slots read, in isa.Sources order; 0 = none
	dst  uint8    // scoreboard slot written; 0 = none
	size uint8
	pred trace.PredState

	usesRename bool // consumes a GPR rename buffer (compares write CR instead)
	dispatched bool
	issued     bool
	completed  bool
	mispred    bool // branch that redirects fetch
	writesFPR  bool
	isLoad     bool
	isStore    bool
	cancelled  bool // constant load whose cache access the CVU cancelled
}

// machine is the live simulation state. Instructions live in a fixed-size
// ring of entries sized by ringSize, so a run needs memory proportional to
// the machine's window, not to the trace: the live window spans at most
// Completion+FetchBuffer entries, and the oldest entry any mechanism may
// still consult (a producer feeding a dependence capture, or a predicted
// load behind a spec tag) is bounded by a further Completion+CompleteWidth
// below the head — see ringSize.
type machine struct {
	cfg  Config
	ann  trace.Annotation
	hier *cache.Hierarchy
	bp   *bpred.Predictor

	// The trace, read in place: fetch steps the walker to record i, takes
	// its rowInfo from rows (one per static row), a load's or store's
	// address from w.Addr, and a branch's outcome through w.Branch.
	w    trace.Walker
	n    int // records
	rows []rowInfo
	br   trace.Record // the branch fetch last rebuilt

	entries []entry // ring; index with at()

	head      int // oldest not-completed (absolute index)
	dispPtr   int // next to dispatch (into entries/window)
	fetched   int // number fetched so far (fetch buffer tail)
	liveFloor int // head at the start of the current cycle

	// pend lists dispatched-but-not-issued entries in dispatch order — the
	// only candidates issue must consider (bounded by the completion
	// buffer, so it never reallocates after construction). Each carries a
	// conservative earliest-issue bound so entries waiting on long-latency
	// producers are skipped without touching their ring slots.
	pend []pendEnt

	// Rename-buffer occupancy, maintained incrementally: allocated at
	// dispatch, freed at completion (the only two transitions an entry in
	// [head, dispPtr) can make).
	renameG, renameF int

	// Per-cycle reservation-station census: rsCount is valid for rsCycle
	// only, assembled on the cycle's first rsInUse call from three cheap
	// components — pendFU (unissued entries, maintained at dispatch/issue),
	// issuedNow (entries that issued this cycle and so still hold their
	// stations), and the specHeld list (issued entries held by an
	// unverified speculative source, paper §4.1) — and bumped locally as
	// entries dispatch within the cycle.
	rsCount   [NumFU]int
	rsCycle   int
	pendFU    [NumFU]int
	issuedNow [NumFU]int
	specHeld  []int // absolute indices of issued entries with a spec source

	// headWaitC is the memoized earliest cycle the current head entry can
	// complete (exact once it has issued: doneC and verifyC never change
	// after). complete is a no-op until then.
	headWaitC int

	lastWriter [isa.NumSlots]int // newest producer per scoreboard slot, or -1

	// busyUntil is, per FU type, the cycle its non-pipelined instruction
	// (issue interval above 1) frees it.
	busyUntil [NumFU]int

	fetchStallEntry   int // entry index of unresolved mispredicted branch, or -1
	lastConflictCycle int
	missBusyUntil     []int // completion cycles of outstanding L1 misses (MSHRs)

	bankRing [16][8]uint8 // future L1 bank usage, ring-indexed by cycle

	otr *obs.Tracer // sim-channel event tracer (nil = off)

	stats Stats
}

// pendEnt is one issue candidate: the entry's ring index plus the fields
// the issue scan needs every cycle (FU for the capacity check, the store
// bit for the in-order store rule) and notBefore, the earliest cycle the
// entry could possibly issue. notBefore is sound because a producer's
// resultReadyC never changes once known, and an unissued producer's result
// is never ready before the cycle after the current one — so a failed
// readiness check at cycle c yields a bound of max(c+1, known ready
// cycles) that skips the re-check (and the entry's cache lines) until it
// can matter.
type pendEnt struct {
	idx       int
	notBefore int
	fu        FU
	isStore   bool
}

// at returns the ring slot holding absolute entry index i. Valid only while
// i is within ringSize of the newest fetched entry; the structural bounds in
// ringSize guarantee that for every consultation the model performs. The
// len-1 mask form lets the compiler drop the bounds check (the ring length
// is a power of two).
func (m *machine) at(i int) *entry {
	ring := m.entries
	if len(ring) == 0 {
		return nil // unreachable: the ring is allocated at construction
	}
	return &ring[uint(i)&uint(len(ring)-1)]
}

// ringSize is the entry-ring capacity for a configuration: the live window
// holds at most Completion+FetchBuffer entries, dependence capture may
// consult a producer completed this cycle (head retreats at most
// CompleteWidth below the cycle's liveFloor), and a reservation-station hold
// may consult a spec-source load up to Completion entries behind its
// consumer. Rounded up to a power of two for mask indexing.
func ringSize(cfg Config) int {
	need := 2*cfg.Completion + cfg.FetchBuffer + cfg.CompleteWidth + 2
	size := 1
	for size < need {
		size <<= 1
	}
	return size
}

// Simulate runs trace t, annotated by ann, through the machine model and
// returns its statistics; lvpName labels the run. Fetch reads t's rows and
// memory-op lanes in place (no record is expanded), so only the machine's
// window of in-flight entries is held beyond the trace. A nil ann models a
// machine without LVP hardware; a non-nil ann must hold one state per
// record, or Simulate returns trace.ErrAnnotationLength with zero Stats.
// obsTr, when non-nil, receives machine incidents (alias refetches, MSHR
// stalls, bank conflicts) on the sim channel and L1 misses on the cache
// channel.
func Simulate(t *trace.Trace, ann trace.Annotation, cfg Config, lvpName string, obsTr *obs.Tracer) (Stats, error) {
	if err := t.CheckAnnotation(ann); err != nil {
		return Stats{}, err
	}
	m := &machine{
		cfg: cfg,
		ann: ann,
		w:   t.Walk(),
		n:   t.Len(),
		hier: &cache.Hierarchy{
			L1:        cache.MustNew(cfg.L1),
			L2:        cache.MustNew(cfg.L2),
			L1Latency: cfg.L1Latency, L2Latency: cfg.L2Latency, MemLatency: cfg.MemLatency,
			Tracer: obsTr,
		},
		bp:              bpred.New(bpred.Default620),
		fetchStallEntry: -1,
		otr:             obsTr,
	}
	m.rows = rowInfos(t.Static(), cfg.Latencies())
	for i := range m.lastWriter {
		m.lastWriter[i] = -1
	}
	m.stats.Machine = cfg.Name
	m.stats.LVPConfig = lvpName
	size := ringSize(cfg)
	m.entries = make([]entry, size)
	m.pend = make([]pendEnt, 0, cfg.Completion+cfg.DispatchWidth)
	// Worst case between two sweeps: a full window of spec-held issues
	// plus a dispatch group, with retired entries not yet swept.
	m.specHeld = make([]int, 0, 2*cfg.Completion+cfg.DispatchWidth)
	m.rsCycle = -1
	m.run()
	m.stats.Instructions = m.fetched
	m.stats.L1 = m.hier.L1.Stats()
	m.stats.L2 = m.hier.L2.Stats()
	m.stats.Branch = m.bp.Stats()
	return m.stats, nil
}

// prepare resets ring slot e for entry i, an instance of row info at
// address addr (memory ops; 0 otherwise) with prediction state pred: direct
// field stores from the row, no isa switches and no struct clear.
func (m *machine) prepare(e *entry, i int, info *rowInfo, addr uint64, pred trace.PredState) {
	// Every field is stored explicitly (no struct clear): the stores below
	// cover exactly the fields some cycle loop may read before writing.
	// dispatchC/issueC/doneC/readyMax/aliasStore are deliberately left
	// stale — each is written before its first read for a new occupant
	// (dispatchC at dispatch, issueC/doneC/readyMax at issue, aliasStore
	// by storeQueueCheck before the sqAlias path reads it), and every
	// cross-entry read is guarded by the state bools reset here.
	e.idx = i
	f := info.flags
	e.pc = info.pc
	e.addr = addr
	e.size = info.size
	e.src, e.dst = info.src, info.dst
	e.fu = info.fu
	e.lat = info.lat
	e.issue = info.issue
	e.flags = f
	e.srcA, e.srcB, e.specSrc = -1, -1, -1
	e.resultReadyC = unknown
	e.verifyC = unknown
	e.pred = pred
	e.dispatched, e.issued, e.completed = false, false, false
	e.mispred, e.cancelled = false, false
	e.writesFPR = f&opWritesFPR != 0
	e.usesRename = f&opUsesRename != 0
	e.isLoad = f&opIsLoad != 0
	e.isStore = f&opIsStore != 0
}

// rowInfo is what the model needs of one static row, derived once per run
// from the isa switch functions, the machine's Latencies and this file's
// fuOf and isCompare.
type rowInfo struct {
	pc    uint64
	lat   int32
	flags uint16
	issue uint16
	fu    FU
	src   [2]uint8 // scoreboard slots read (isa.Sources order); 0 = none
	dst   uint8    // scoreboard slot written (isa.Dest); 0 = none
	size  uint8
}

const (
	opWritesFPR  uint16 = 1 << iota
	opUsesRename        // writes a GPR other than R0 and is no compare
	opIsLoad
	opIsStore
	opIsBranch
)

// rowInfos derives one rowInfo per static row, its latencies from lat.
func rowInfos(static []trace.Record, lat isa.Latencies) []rowInfo {
	rows := make([]rowInfo, len(static))
	for j := range static {
		r, info := &static[j], &rows[j]
		in, l := r.Inst(), lat.Of(r.Op)
		*info = rowInfo{pc: r.PC, lat: int32(l.Result), issue: uint16(l.Issue), fu: fuOf(r.Op), size: r.Size}
		info.src, info.dst = isa.Slots(in)
		for _, b := range []struct {
			bit uint16
			on  bool
		}{
			{opWritesFPR, isa.WritesFPR(in)},
			{opUsesRename, isa.WritesGPR(in) && r.Rd != isa.R0 && !isCompare(r.Op)},
			{opIsLoad, isa.IsLoad(r.Op)},
			{opIsStore, isa.IsStore(r.Op)},
			{opIsBranch, isa.IsBranch(r.Op)},
		} {
			if b.on {
				info.flags |= b.bit
			}
		}
	}
	return rows
}

// isCompare reports VLR compare ops. On the PowerPC these are cmp/fcmp
// instructions that write the condition register, which has its own ample
// rename pool on the 620 — so they do not consume GPR rename buffers in
// this model.
func isCompare(op isa.Op) bool {
	switch op {
	case isa.SLT, isa.SLTI, isa.SLTU, isa.SEQ, isa.SNE, isa.FEQ, isa.FLT, isa.FLE:
		return true
	}
	return false
}

func fuOf(op isa.Op) FU {
	switch isa.ClassOf(op) {
	case isa.ClassComplexInt:
		return MCFX
	case isa.ClassSimpleFP, isa.ClassComplexFP:
		return FPU
	case isa.ClassLoad, isa.ClassStore:
		return LSU
	case isa.ClassBranch:
		return BRU
	default:
		return SCFX
	}
}

func (m *machine) run() {
	cycle := 0
	const safetyFactor = 200 // cycles per instruction upper bound
	for m.fetched < m.n || m.head < m.fetched {
		m.liveFloor = m.head
		m.complete(cycle)
		m.issue(cycle)
		m.dispatch(cycle)
		m.fetch(cycle)
		// Clear the bank-usage slot this cycle vacates.
		m.bankRing[(cycle+len(m.bankRing)-1)&(len(m.bankRing)-1)] = [8]uint8{}
		cycle++
		if cycle > safetyFactor*(m.fetched+100) {
			panic("ppc620: simulation wedged (cycle bound exceeded)")
		}
	}
	m.stats.Cycles = cycle
}

// --- fetch ---

func (m *machine) fetch(cycle int) {
	// Fetch is blocked while a mispredicted branch is unresolved.
	if m.fetchStallEntry >= 0 {
		e := m.at(m.fetchStallEntry)
		if !e.issued || cycle <= e.doneC {
			return
		}
		m.fetchStallEntry = -1
	}
	space := m.cfg.FetchBuffer - (m.fetched - m.dispPtr)
	width := min(m.cfg.FetchWidth, space)
	for k := 0; k < width && m.fetched < m.n; k++ {
		i := m.fetched
		info := &m.rows[m.w.Next()]
		// Annotations normally cover loads only; AnnotateGeneral also marks
		// other register-writing instructions, which this model handles
		// with the same forward-at-dispatch / verify-after-execute
		// semantics. A nil annotation means no LVP hardware: every record
		// carries PredNone and no load state is counted.
		pred := trace.PredNone
		if m.ann != nil {
			pred = m.ann[i]
			if info.flags&opIsLoad != 0 {
				m.stats.LoadStates[pred]++
			}
		}
		var addr uint64
		if info.flags&(opIsLoad|opIsStore) != 0 {
			addr = m.w.Addr()
		}
		e := m.at(i)
		m.prepare(e, i, info, addr, pred)
		m.fetched++
		// Branch prediction happens at fetch, against the record rebuilt
		// from its row; a mispredicted branch stalls further fetch until
		// it resolves.
		if info.flags&opIsBranch != 0 {
			m.w.Branch(&m.br)
			if m.bp.Resolve(&m.br) {
				e.mispred = true
				m.fetchStallEntry = i
				return
			}
		}
	}
}

// --- dispatch ---

func (m *machine) dispatch(cycle int) {
	loads, stores := 0, 0
	for k := 0; k < m.cfg.DispatchWidth; k++ {
		if m.dispPtr >= m.fetched {
			m.stats.StallFetchEmpty++
			return
		}
		i := m.dispPtr
		e := m.at(i)
		// Structural checks (in-order: stop at first failure).
		if i-m.head >= m.cfg.Completion {
			m.stats.StallCompletion++
			return // completion buffer full
		}
		if m.rsInUse(e.fu, cycle) >= m.cfg.RS[e.fu] {
			m.stats.StallRS[e.fu]++
			return
		}
		if e.usesRename && m.renameG >= m.cfg.GPRRename {
			m.stats.StallRename++
			return
		}
		if e.writesFPR && m.renameF >= m.cfg.FPRRename {
			m.stats.StallRename++
			return
		}
		if e.isLoad || e.isStore {
			full := false
			if m.cfg.RelaxedLS {
				full = loads+stores >= m.cfg.MaxLoadDispatch+m.cfg.MaxStoreDispatch-2
			} else {
				full = (e.isLoad && loads >= m.cfg.MaxLoadDispatch) ||
					(e.isStore && stores >= m.cfg.MaxStoreDispatch)
			}
			if full {
				m.stats.StallMemSlots++
				return
			}
		}

		// Dependence capture, in isa.Sources order (Ra before Rb); slot 0
		// (GPR R0, never written) is always ready. Producers completed
		// before this cycle are dead for both readiness (their result is
		// long available) and spec-tag propagation (their verification is
		// in the past), so only entries at or above the cycle's live floor
		// are consulted — which also keeps every consulted index within
		// the ring.
		for _, sl := range e.src {
			if sl != 0 {
				m.captureSrc(e, m.lastWriter[sl], cycle)
			}
		}

		e.dispatched = true
		e.dispatchC = cycle
		m.rsCount[e.fu]++ // newly dispatched: holds its reservation station
		m.pendFU[e.fu]++
		if e.usesRename {
			m.renameG++
		}
		if e.writesFPR {
			m.renameF++
		}
		if e.dst != 0 {
			m.lastWriter[e.dst] = i
		}
		// A predicted instruction forwards its value at dispatch.
		if e.pred == trace.PredCorrect || e.pred == trace.PredConstant {
			e.resultReadyC = cycle
		}
		if e.isLoad {
			loads++
		}
		if e.isStore {
			stores++
		}
		m.pend = append(m.pend, pendEnt{idx: i, fu: e.fu, isStore: e.isStore})
		m.dispPtr++
	}
}

// captureSrc records producer p as a source of e if p is still live, and
// propagates the speculative-value tag (paper §4.1).
func (m *machine) captureSrc(e *entry, p, cycle int) {
	if p < m.liveFloor {
		return
	}
	if e.srcA < 0 {
		e.srcA = p
	} else if p != e.srcA {
		e.srcB = p
	}
	if tag := m.specTagOf(p, cycle); tag >= 0 {
		e.specSrc = tag
	}
}

// specTagOf reports the unverified predicted load behind producer p (p
// itself, or its inherited tag), or -1. p must be at or above the cycle's
// live floor; the spec source it chases is within Completion of p and so
// still resident in the ring.
func (m *machine) specTagOf(p, cycle int) int {
	pe := m.at(p)
	if pe.pred != trace.PredNone {
		if pe.verifyC == unknown || pe.verifyC >= cycle {
			return p
		}
		return -1
	}
	if pe.specSrc >= 0 {
		le := m.at(pe.specSrc)
		if le.verifyC == unknown || le.verifyC >= cycle {
			return pe.specSrc
		}
	}
	return -1
}

// rsInUse counts reservation-station entries held for one FU type. An entry
// holds its station until the cycle after issue, and — when it consumed a
// speculatively-forwarded value — until that value is verified (paper §4.1).
// The census is memoized per cycle and assembled from incremental state:
// pendFU covers the unissued entries, issuedNow the entries whose issue
// cycle is this cycle, and the specHeld list the (rare) issued entries
// behind an unverified speculative source. The memo is sound because rsInUse
// is called only from dispatch, which runs after complete and issue — no
// station-holding state changes between calls within a cycle except the
// dispatches the counter tracks directly.
func (m *machine) rsInUse(f FU, cycle int) int {
	if m.rsCycle != cycle {
		m.rsCount = m.pendFU
		for fu, n := range m.issuedNow {
			m.rsCount[fu] += n
		}
		live := m.specHeld[:0]
		for _, i := range m.specHeld {
			e := m.at(i)
			if e.idx != i || e.completed {
				continue // slot reused, or retired (never holds again)
			}
			if e.issueC == cycle {
				live = append(live, i) // already counted via issuedNow
				continue
			}
			le := m.at(e.specSrc)
			if le.idx != e.specSrc || (le.verifyC != unknown && cycle > le.verifyC) {
				continue // verification passed: the hold has expired for good
			}
			m.rsCount[e.fu]++
			live = append(live, i)
		}
		m.specHeld = live
		m.rsCycle = cycle
	}
	return m.rsCount[f]
}

// --- issue & execute ---

func (m *machine) issue(cycle int) {
	var issuedPerFU [NumFU]int
	capacity := m.cfg.Units
	for f, until := range m.busyUntil {
		if until > cycle {
			capacity[f] = 0
		}
	}
	// Stores issue in order among stores; loads may issue past older
	// stores with unknown addresses — the 620's store-to-load alias
	// detection refetches them when a conflict materialises (§4.1).
	// Only dispatched-but-not-issued entries are candidates; pend holds
	// exactly those, in dispatch order, and is compacted in place as
	// entries issue (issued entries never set storeBlocked, so dropping
	// them preserves the store-ordering side effects of a full scan).
	storeBlocked := false
	w := 0 // in-place compaction: entries that issue are dropped
	for k := 0; k < len(m.pend); k++ {
		pe := &m.pend[k]
		if cycle >= pe.notBefore {
			if issuedPerFU[pe.fu] < capacity[pe.fu] && !(pe.isStore && storeBlocked) {
				e := m.at(pe.idx)
				if nb := m.operandsReady(e, cycle); nb <= cycle {
					m.execute(e, pe.idx, cycle)
					issuedPerFU[pe.fu]++
					m.pendFU[pe.fu]--
					if e.specSrc >= 0 {
						m.specHeld = append(m.specHeld, pe.idx)
					}
					continue // issued: not kept
				} else {
					pe.notBefore = nb
				}
			}
		}
		// Not issued this cycle: an unissued older store blocks younger
		// stores (in-order store issue), whatever the reason it waits.
		if pe.isStore {
			storeBlocked = true
		}
		if w != k {
			m.pend[w] = *pe
		}
		w++
	}
	m.pend = m.pend[:w]
	m.issuedNow = issuedPerFU
}

// operandsReady reports when the entry's operands permit issue: a return
// value equal to cycle means ready now (recording the Figure 8
// dependency-wait), a larger value is the earliest cycle a re-check could
// succeed — exact when every producer's ready cycle is known, cycle+1 when
// a producer has not yet issued (its result is never ready before the
// cycle after it issues). A producer's resultReadyC never changes once
// known, so the bound stays valid for pendEnt caching.
func (m *machine) operandsReady(e *entry, cycle int) int {
	ready := e.dispatchC
	nb := cycle
	if p := e.srcA; p >= 0 {
		switch pr := m.at(p).resultReadyC; {
		case pr == unknown:
			if nb == cycle {
				nb = cycle + 1
			}
		case pr > cycle:
			if pr > nb {
				nb = pr
			}
		case pr > ready:
			ready = pr
		}
	}
	if p := e.srcB; p >= 0 {
		switch pr := m.at(p).resultReadyC; {
		case pr == unknown:
			if nb == cycle {
				nb = cycle + 1
			}
		case pr > cycle:
			if pr > nb {
				nb = pr
			}
		case pr > ready:
			ready = pr
		}
	}
	if nb > cycle {
		return nb
	}
	e.readyMax = ready
	return cycle
}

func (m *machine) execute(e *entry, i, cycle int) {
	e.issued = true
	e.issueC = cycle
	m.stats.RSWaitSum[e.fu] += int64(max(0, e.readyMax-e.dispatchC))
	m.stats.RSWaitN[e.fu]++

	switch {
	case e.isLoad:
		m.executeLoad(e, i, cycle)
	case e.isStore:
		// Address generation; the cache write happens at completion.
		e.doneC = cycle + int(e.lat)
		e.resultReadyC = e.doneC
	default:
		e.doneC = cycle + int(e.lat)
		switch e.pred {
		case trace.PredCorrect:
			// Forwarded at dispatch; verified one cycle after the
			// result computes (general value prediction, §7).
			e.verifyC = e.doneC + 1
		case trace.PredIncorrect:
			e.verifyC = e.doneC + 1
			e.resultReadyC = e.doneC + 1
		default:
			if e.resultReadyC == unknown {
				e.resultReadyC = e.doneC
			}
		}
		if e.resultReadyC == unknown {
			e.resultReadyC = e.doneC
		}
	}
	if e.issue > 1 {
		m.busyUntil[e.fu] = cycle + int(e.issue) // not pipelined
	}
}

func (m *machine) executeLoad(e *entry, i, cycle int) {
	addr := e.addr

	// Check the uncommitted store queue. An older overlapping store that
	// has executed forwards its data (1 cycle). One that has not yet
	// executed cannot be detected by the hardware: the load proceeds
	// speculatively and the 620's alias-detection logic refetches it
	// when the store's address is generated (§4.1).
	switch m.storeQueueCheck(i, cycle) {
	case sqForward:
		e.doneC = cycle + 1
		m.finishLoad(e, cycle)
		return
	case sqAlias:
		// Refetch: the load's value becomes available only after the
		// conflicting store executes plus a refetch penalty.
		st := m.at(e.aliasStore)
		avail := cycle + m.cfg.L1Latency
		if st.issued {
			avail = max(avail, st.doneC+aliasRefetchPenalty+m.cfg.L1Latency)
		} else {
			// The store has not even issued; bound the penalty by
			// treating detection as happening at our own issue+1.
			avail = cycle + aliasRefetchPenalty + m.cfg.L1Latency
		}
		m.stats.AliasRefetches++
		if m.otr.Enabled(obs.ChanSim) {
			m.otr.Emit(obs.ChanSim, "alias-refetch",
				slog.String("pc", fmt.Sprintf("%#x", e.pc)),
				slog.String("addr", fmt.Sprintf("%#x", e.addr)),
				slog.String("store_pc", fmt.Sprintf("%#x", st.pc)),
				slog.Int("cycle", cycle))
		}
		e.doneC = avail
		m.finishLoad(e, cycle)
		return
	}

	bank := m.hier.L1.Bank(addr)
	accessCycle := cycle + 1 // EX2 cache cycle
	slot := &m.bankRing[accessCycle&(len(m.bankRing)-1)][bank]
	conflict := *slot >= 1

	if e.pred == trace.PredConstant {
		// The CVU verifies the value without needing memory; the
		// access is initiated anyway, but a bank conflict or cache
		// miss cancels it instead of retrying (paper §3.4, §6.5).
		if conflict || !m.hier.ProbeL1(addr) {
			e.cancelled = true
			e.doneC = cycle + 1
			m.finishLoad(e, cycle)
			return
		}
		// Bank free and line present: the access proceeds as a hit.
		*slot++
		m.stats.CacheAccesses++
		m.hier.L1.Access(addr)
		e.doneC = cycle + m.cfg.L1Latency
		m.finishLoad(e, cycle)
		return
	}

	if conflict {
		m.noteConflict(accessCycle)
		accessCycle++ // retry next cycle
		slot = &m.bankRing[accessCycle&(len(m.bankRing)-1)][bank]
	}
	*slot++
	m.stats.CacheAccesses++
	res := m.hier.Access(addr)
	done := accessCycle - 1 + res.Latency
	if !res.L1Hit {
		// A miss needs a free MSHR; with all miss registers busy the
		// request waits for the earliest one to retire.
		done = m.allocMSHR(accessCycle, res.Latency)
	}
	e.doneC = done
	m.finishLoad(e, cycle)
}

// allocMSHR models the bounded set of outstanding-miss registers: a miss
// starting at `start` with the given service latency occupies an MSHR until
// its data returns; if all MSHRs are busy the miss is deferred until the
// earliest outstanding one completes.
func (m *machine) allocMSHR(start, latency int) (done int) {
	// Drop retired entries.
	live := m.missBusyUntil[:0]
	for _, d := range m.missBusyUntil {
		if d > start {
			live = append(live, d)
		}
	}
	m.missBusyUntil = live
	if m.cfg.MSHRs > 0 && len(live) >= m.cfg.MSHRs {
		earliest := live[0]
		for _, d := range live[1:] {
			if d < earliest {
				earliest = d
			}
		}
		m.stats.MSHRStalls++
		if m.otr.Enabled(obs.ChanSim) {
			m.otr.Emit(obs.ChanSim, "mshr-stall",
				slog.Int("cycle", start),
				slog.Int("deferred_to", earliest))
		}
		start = earliest
	}
	done = start - 1 + latency
	m.missBusyUntil = append(m.missBusyUntil, done)
	return done
}

// finishLoad sets verification and result-forwarding times per the load's
// prediction state.
func (m *machine) finishLoad(e *entry, cycle int) {
	switch e.pred {
	case trace.PredConstant:
		// CVU match: verified when the address is known; no value
		// comparison cycle.
		e.verifyC = e.doneC
		// resultReadyC was already set at dispatch.
	case trace.PredCorrect:
		e.verifyC = e.doneC + 1 // value comparison takes one extra cycle
	case trace.PredIncorrect:
		e.verifyC = e.doneC + 1
		// Dependents reissue and see the correct value one cycle
		// later than they would have without prediction (§4.1).
		e.resultReadyC = e.doneC + 1
	default:
		e.verifyC = e.doneC
		e.resultReadyC = e.doneC
	}
	if e.resultReadyC == unknown {
		e.resultReadyC = e.doneC
	}
	if e.pred == trace.PredCorrect || e.pred == trace.PredConstant {
		m.stats.VerifyLatency[verifyBucket(e.verifyC-e.dispatchC)]++
	}
}

// aliasRefetchPenalty is the extra latency charged when a load issued past
// an older store turns out to alias it and must be refetched.
const aliasRefetchPenalty = 3

type sqResult int

const (
	sqClear   sqResult = iota // no older overlapping store
	sqForward                 // overlapping store already executed: forward
	sqAlias                   // overlapping store not yet executed: refetch
)

// storeQueueCheck scans older in-flight stores for an overlap with load i
// and classifies the situation. On sqAlias the conflicting store's index is
// recorded in the load's aliasStore field.
func (m *machine) storeQueueCheck(i, cycle int) sqResult {
	e := m.at(i)
	for j := i - 1; j >= m.head; j-- {
		o := m.at(j)
		if !o.isStore || o.completed {
			continue
		}
		if !rangesOverlap(o.addr, int(o.size), e.addr, int(e.size)) {
			continue
		}
		if o.issued && o.doneC <= cycle {
			return sqForward
		}
		e.aliasStore = j
		return sqAlias
	}
	return sqClear
}

func rangesOverlap(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}

// noteConflict records a bank-conflict event, counting each conflicted
// cycle once for Figure 9.
func (m *machine) noteConflict(cycle int) {
	m.stats.BankConflicts++
	if cycle != m.lastConflictCycle {
		m.stats.BankConflictCycles++
		m.lastConflictCycle = cycle
	}
	if m.otr.Enabled(obs.ChanSim) {
		m.otr.Emit(obs.ChanSim, "bank-conflict", slog.Int("cycle", cycle))
	}
}

// --- completion ---

func (m *machine) complete(cycle int) {
	if cycle < m.headWaitC {
		return // the head entry's completion cycle is known and not yet here
	}
	for k := 0; k < m.cfg.CompleteWidth && m.head < m.dispPtr; k++ {
		e := m.at(m.head)
		if !e.issued {
			return
		}
		if cycle < e.doneC || (e.verifyC != unknown && cycle < e.verifyC) {
			// Once issued, doneC and verifyC are final: the head cannot
			// complete before their max, so skip the scan until then.
			b := e.doneC
			if e.verifyC != unknown && e.verifyC > b {
				b = e.verifyC
			}
			m.headWaitC = b
			return
		}
		if e.isStore {
			// Commit the store: the cache is written now, using a
			// bank port (Figure 9's conflict source).
			bank := m.hier.L1.Bank(e.addr)
			slot := &m.bankRing[cycle&(len(m.bankRing)-1)][bank]
			if *slot >= 1 {
				// Port busy: the store retries next cycle
				// (stop completing this cycle).
				m.noteConflict(cycle)
				return
			}
			*slot++
			m.stats.CacheAccesses++
			m.hier.Access(e.addr)
		}
		e.completed = true
		if e.usesRename {
			m.renameG--
		}
		if e.writesFPR {
			m.renameF--
		}
		m.head++
	}
}
