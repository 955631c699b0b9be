package trace

import (
	"cmp"
	"fmt"
	"io"
	"iter"
	"math"
	"slices"
	"unsafe"

	"lvp/internal/isa"
)

// Trace is an in-memory dynamic instruction trace, stored the way the
// paper's §5 traces record dynamic facts against a static binary: each
// distinct static row once (a Record with Value, Taken, Targ and, on memory
// ops, Addr zeroed, keyed by the whole remaining tuple, so any record
// sequence compacts without loss), and per record only its Taken bit and
// coded lanes. No record keeps its row: record 0 is row 0, and each later
// one is on the first row at the last one's next PC (PC + isa.InstBytes,
// or a branch's Targ). Each register and store Value, load Addr and store
// Addr is the uvarint of the zigzagged difference from the previous one
// (putDelta) — on its row for Values and load Addrs — so the paper's value
// locality makes a repeat cost one byte. Sparse lanes keep the exceptions:
// Targs other than derivedTarg (JALR), nonzero Values on rows that carry
// none and rows the control flow does not name (neither in VM traces). The
// suite's traces hold about 3.14 B/record.
//
// A Trace is immutable once built and safe to share. Its records are read
// in order: through a Walker (the timing models, the dataflow analysis), a
// LoadReader (the load-only walks) or Batches, which expands them into one
// reused buffer.
type Trace struct {
	Name   string // benchmark name, e.g. "grep"
	Target string // codegen target, e.g. "ppc" or "axp"

	n                 int // records
	static            []Record
	kind              []uint8  // per row: rowLoad | rowStore | rowBranch | rowVal
	succ              []uint64 // per row: its successors, taken above not taken (see trace)
	byPC              []uint16 // the rows by PC, then number (rowAt)
	vals              []byte
	taken             []uint64
	targX, valX, rowX sparse // Targ, Value and row exceptions
	mem               MemOps
}

// Row kinds. rowVal marks a row whose records carry a Value in vals (a
// store, or a write to a register other than R0); rowFirst the first row
// at its PC.
const (
	rowLoad uint8 = 1 << iota
	rowStore
	rowBranch
	rowVal
	rowFirst
)

// MaxStaticRows bounds a trace's static rows; the suite's hold a few hundred.
const MaxStaticRows = 1 << 16

// ErrStaticRows reports a record stream with more static rows than that.
var ErrStaticRows = fmt.Errorf("trace: more than MaxStaticRows (%d) distinct static rows", MaxStaticRows)

// sparse is a lane few records fill: their indices, increasing, and values.
type sparse struct {
	at []uint32
	v  []uint64
}

// get returns record i's value, if the lane holds one. x is the caller's
// position, at most the first entry at or after i; calls come in
// increasing i, and each moves x past i.
func (s *sparse) get(i int, x *int) (v uint64, ok bool) {
	for *x < len(s.at) && int(s.at[*x]) <= i {
		if int(s.at[*x]) == i {
			v, ok = s.v[*x], true
		}
		*x++
	}
	return v, ok
}

// putDelta appends v to l as the uvarint of its zigzagged difference from
// *last, and sets *last to v: the one coding of every Value and Addr lane.
func putDelta(l *lane[uint8], last *uint64, v uint64) {
	d := v - *last
	*last = v
	z := d<<1 ^ uint64(int64(d)>>63)
	for ; z >= 0x80; z >>= 7 {
		l.add(byte(z) | 0x80)
	}
	l.add(byte(z))
}

// delta decodes the putDelta at b[*p], moves *p past it, and returns the
// value it codes, which it also stores in *last. A one-byte code, the most
// common, takes no loop.
func delta(b []byte, p *int, last *uint64) uint64 {
	z := uint64(b[*p])
	*p++
	if z >= 0x80 {
		z &= 0x7f
		for shift := 7; ; shift += 7 {
			c := b[*p]
			*p++
			z |= uint64(c&0x7f) << shift
			if c < 0x80 {
				break
			}
		}
	}
	*last += z>>1 ^ -(z & 1)
	return *last
}

// MemOps is a trace's memory-op lanes: every load and every store, in trace
// order, shared read-only by every reader of the memory-op stream.
type MemOps struct {
	// Load lanes: load i executed static row LoadRows[i] at PC
	// RowPCs[LoadRows[i]] (one per row).
	LoadRows []uint16
	RowPCs   []uint64

	// Store lanes: store k wrote StoreSizes[k] bytes after the first
	// StoreAt[k] loads of the stream and before the rest.
	StoreSizes []uint8
	StoreAt    []int32

	addrs, values, storeAddrs []byte // coded: putDelta by row, by row, in turn
}

// Len reports the number of dynamic loads.
func (m MemOps) Len() int { return len(m.LoadRows) }

// LoadReader decodes memory-op lanes in trace order against its own
// per-row tables: the loads in chunks (Read), each store between them
// (Store).
type LoadReader struct {
	m             MemOps
	i, k, a, v, s int      // the next load and store; the next byte of each coded lane
	store         uint64   // the last store's Addr
	lastA, lastV  []uint64 // per row: its last load Addr and Value
}

// Loads returns a LoadReader at m's start; its tables are its one allocation.
func (m MemOps) Loads() LoadReader { return m.reader(make([]uint64, 2*len(m.RowPCs))) }

// reader returns a LoadReader at m's start over tab, zeroed, two words per row.
func (m MemOps) reader(tab []uint64) LoadReader {
	return LoadReader{m: m, lastA: tab[:len(m.RowPCs):len(m.RowPCs)], lastV: tab[len(m.RowPCs):]}
}

// Read decodes the next loads, as many as pcs holds or are left, into pcs,
// addrs and values (each at least as long as pcs), and returns how many.
// A reader whose Reads all pass nil addrs skips the Addr lane.
func (r *LoadReader) Read(pcs, addrs, values []uint64) int {
	m := &r.m
	n := min(len(pcs), len(m.LoadRows)-r.i)
	rowPCs, lastA, lastV, a, v := m.RowPCs, r.lastA, r.lastV, r.a, r.v // locals for the loops
	values = values[:n]
	if addrs == nil {
		for k, row := range m.LoadRows[r.i : r.i+n] {
			pcs[k], values[k] = rowPCs[row], delta(m.values, &v, &lastV[row])
		}
	} else {
		// Both lanes in one loop: their two decode chains overlap.
		addrs = addrs[:n]
		for k, row := range m.LoadRows[r.i : r.i+n] {
			pcs[k], values[k], addrs[k] = rowPCs[row], delta(m.values, &v, &lastV[row]), delta(m.addrs, &a, &lastA[row])
		}
	}
	r.i, r.a, r.v = r.i+n, a, v
	return n
}

// Store decodes the next store: its Addr and size in bytes.
func (r *LoadReader) Store() (addr uint64, size int) {
	r.k++
	return delta(r.m.storeAddrs, &r.s, &r.store), int(r.m.StoreSizes[r.k-1])
}

// Walker reads a trace's records in order without expanding them: Next
// steps to the next record and gives its row, Addr decodes its Addr if it
// is a load or a store, and Branch rebuilds it if it is a branch. Its
// tables are its own, so walks of one trace may run concurrently.
type Walker struct {
	t          *Trace
	mem        LoadReader              // the Addr and Value lanes' positions and tables
	base, k, n int                     // rows holds records base to base+n; the current one is at k
	val        int                     // the next byte of the Value lane
	bx, vx     int                     // the first Targ and Value exceptions at or after the current record
	tx, rx     int                     // the next Targ and row exceptions ahead reads
	tNext, rAt int                     // the records except derives: after entry tx's, at entry rx's
	rows       [walkRecords + 8]uint16 // 8 past walkRecords for ahead's stores
}

// walkRecords is how many records ahead decodes at a time.
const walkRecords = 256

// Walk returns a Walker at t's start; its tables are its one allocation.
func (t *Trace) Walk() Walker { return t.walker(make([]uint64, 2*len(t.static))) }

// walker returns a Walker at t's start over tab, zeroed, two words per row.
func (t *Trace) walker(tab []uint64) Walker {
	return Walker{t: t, mem: t.mem.reader(tab), k: -1, tNext: t.targX.record(0) + 1, rAt: t.rowX.record(0)}
}

// record returns entry x's record, or MaxRecords past the last entry.
func (s *sparse) record(x int) int {
	if x < len(s.at) {
		return int(s.at[x])
	}
	return MaxRecords
}

// Next steps to the next record and returns its row in Static. It must be
// called at most Len times.
func (w *Walker) Next() int {
	if w.k++; w.k >= w.n {
		w.ahead()
	}
	return int(w.rows[w.k])
}

// run steps over the next records, at most n, and returns their rows and
// the first one's index.
func (w *Walker) run(n int) (rows []uint16, first int) {
	if w.k+1 >= w.n {
		w.ahead()
		w.k = -1
	}
	rows, first = w.rows[w.k+1:min(w.n, w.k+1+n)], w.base+w.k+1
	w.k += len(rows)
	return rows, first
}

// ahead decodes the next records' rows, walkRecords at most: each the
// first row at the last one's next PC (succ; a run of rows that follow in
// number takes one lookup), or through except where succ may not name it.
// It keeps the chain of rows, each found from the last, apart from the
// caller's work.
func (w *Walker) ahead() {
	t, i, row := w.t, w.base+w.n, uint16(0)
	if w.n > 0 {
		row = w.rows[w.n-1]
	}
	n := min(walkRecords, t.n-i)
	w.base, w.k, w.n = i, 0, n
	succ, taken, next := t.succ, t.taken, min(w.tNext, w.rAt)
	if i == 0 {
		next = 0
	}
	for k := 0; k < n; {
		m := 0 // how many records after this one follow it in row number
		if i < next {
			// Both successors load at once, off the chain through the
			// taken bit.
			j := i - 1
			s := uint32(succ[row] >> (taken[j>>6] >> (j & 63) & 1 * 32))
			row, m = uint16(s), min(int(s>>16), next-i-1)
		} else {
			row = w.except(i, row)
			next = min(w.tNext, w.rAt)
		}
		m = min(m, n-k-1)
		// Nine at once, into the slack past walkRecords: no branch on the
		// length of a short run.
		r := w.rows[k : k+9 : k+9]
		r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], r[8] = row, row+1, row+2, row+3, row+4, row+5, row+6, row+7, row+8
		for d := 9; d <= m; d++ {
			w.rows[k+d] = row + uint16(d)
		}
		row += uint16(m)
		k, i = k+m+1, i+m+1
	}
}

// except derives record i's row, the last record's being p: record 0 is
// row 0, a branch with a Targ exception goes to the first row at the Targ,
// and a row exception names its row.
func (w *Walker) except(i int, p uint16) uint16 {
	t, row := w.t, uint16(0)
	if i > 0 {
		row = uint16(t.succ[p] >> (t.taken[(i-1)>>6] >> ((i - 1) & 63) & 1 * 32))
		if i == w.tNext {
			if t.kind[p]&rowBranch != 0 {
				row = t.rowAt(t.targX.v[w.tx])
			}
			w.tx++
			w.tNext = t.targX.record(w.tx) + 1
		}
	}
	if i == w.rAt {
		row = uint16(t.rowX.v[w.rx])
		w.rx++
		w.rAt = t.rowX.record(w.rx)
	}
	return row
}

// Addr decodes the current record's Addr. The record must be a load or a
// store, and a walk that reads one Addr must read each load's and store's
// once: each is coded against the last.
func (w *Walker) Addr() uint64 {
	if row := w.rows[w.k]; w.t.kind[row]&rowLoad != 0 {
		return delta(w.t.mem.addrs, &w.mem.a, &w.mem.lastA[row])
	}
	addr, _ := w.mem.Store()
	return addr
}

// Branch rebuilds the current record, a branch, into r: its row's static
// fields, its Taken bit and its Targ (Value zero).
func (w *Walker) Branch(r *Record) {
	t, i := w.t, w.base+w.k
	*r = t.static[w.rows[w.k]]
	r.Taken = t.taken[i>>6]>>(i&63)&1 != 0
	r.Targ = derivedTarg(r, isa.ClassBranch, r.Taken)
	if targ, ok := t.targX.get(i, &w.bx); ok {
		r.Targ = targ
	}
}

// rowAt returns the first row at pc, or 0 if none is: a record that follows
// such a PC is a row exception.
func (t *Trace) rowAt(pc uint64) uint16 {
	k, ok := slices.BinarySearchFunc(t.byPC, pc, func(j uint16, pc uint64) int { return cmp.Compare(t.static[j].PC, pc) })
	if !ok {
		return 0
	}
	return t.byPC[k]
}

// Static returns the trace's static rows, numbered in the order they first
// appear (shared; read only).
func (t *Trace) Static() []Record { return t.static }

// Scatter expands load-order states (one per load) into the per-record
// annotation of t: the k-th load gets states[k], every other record
// PredNone.
func (t *Trace) Scatter(states []PredState) Annotation {
	ann := make(Annotation, t.n)
	w, k := t.Walk(), 0
	for i := 0; i < t.n; {
		rows, first := w.run(t.n - i)
		for j, row := range rows {
			if t.kind[row]&rowLoad != 0 {
				ann[first+j] = states[k]
				k++
			}
		}
		i += len(rows)
	}
	return ann
}

// Len reports the number of records.
func (t *Trace) Len() int { return t.n }

// Mem returns the trace's memory-op lanes (shared; read only).
func (t *Trace) Mem() MemOps { return t.mem }

// ResidentBytes is the memory the trace holds: every lane's capacity times
// its element size, memory-op lanes, static rows and row tables included.
func (t *Trace) ResidentBytes() int64 {
	m := &t.mem
	return size(t.static) + size(t.kind) + size(t.succ) + size(t.byPC) + size(t.vals) + size(t.taken) +
		t.targX.size() + t.valX.size() + t.rowX.size() + size(m.LoadRows) + size(m.RowPCs) +
		size(m.StoreSizes) + size(m.StoreAt) + size(m.addrs) + size(m.values) + size(m.storeAddrs)
}

func size[T any](s []T) int64 {
	var z T
	return int64(cap(s)) * int64(unsafe.Sizeof(z))
}

func (s *sparse) size() int64 { return size(s.at) + size(s.v) }

// derivedTarg is the Targ of a record with static row s, of class cls, and
// outcome taken, unless the exception lanes say otherwise: a branch goes to
// Imm when taken and falls through otherwise; anything else carries 0.
func derivedTarg(s *Record, cls isa.Class, taken bool) uint64 {
	switch {
	case cls != isa.ClassBranch:
		return 0
	case taken:
		return uint64(s.Imm)
	}
	return s.PC + isa.InstBytes
}

// newCursor returns a Walker at t's start and a buffer of n records, the
// walker's tables taken from the same allocation.
func newCursor(t *Trace, n int) (Walker, []Record) {
	const words = int(unsafe.Sizeof(Record{}) / 8)
	buf := make([]Record, n+(2*len(t.static)+words-1)/words)
	return t.walker(unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(buf[n:]))), 2*len(t.static))), buf[:n:n]
}

// fill expands the next records into buf and returns how many it wrote.
// The lane positions live in locals for the loop, which writes through the
// record pointer; register and store Values share the load Value table,
// the rows being apart.
func (w *Walker) fill(buf []Record) int {
	t, m := w.t, &w.t.mem
	n := min(len(buf), t.n-w.base-w.k-1)
	a, s, v, val, vx, bx, store, last, lastA := w.mem.a, w.mem.s, w.mem.v, w.val, w.vx, w.bx, w.mem.store, w.mem.lastV, w.mem.lastA
	for done := 0; done < n; {
		rows, first := w.run(n - done)
		for k, row := range rows {
			i, r, kd := first+k, &buf[done+k], t.kind[row]
			*r = t.static[row]
			r.Taken = t.taken[i>>6]>>(i&63)&1 != 0
			switch {
			case kd&rowLoad != 0:
				r.Addr, r.Value = delta(m.addrs, &a, &lastA[row]), delta(m.values, &v, &last[row])
			case kd&rowVal != 0:
				r.Value = delta(t.vals, &val, &last[row])
			default:
				r.Value, _ = t.valX.get(i, &vx)
			}
			if kd&rowStore != 0 {
				r.Addr = delta(m.storeAddrs, &s, &store)
			}
			if kd&rowBranch != 0 {
				r.Targ = derivedTarg(r, isa.ClassBranch, r.Taken)
			}
			if targ, ok := t.targX.get(i, &bx); ok {
				r.Targ = targ
			}
		}
		done += len(rows)
	}
	w.mem.a, w.mem.s, w.mem.v, w.val, w.vx, w.bx, w.mem.store = a, s, v, val, vx, bx, store
	return n
}

// batchRecords is the size of the reused buffer behind Batches
// (48 KiB of records).
const batchRecords = 1024

// Batches yields t's records in order, expanded into one reused buffer: each
// step gives the index of the batch's first record and the batch, which is
// valid only until the next step.
func (t *Trace) Batches() iter.Seq2[int, []Record] {
	return func(yield func(int, []Record) bool) {
		c, buf := newCursor(t, min(t.n, batchRecords))
		for base := 0; base < t.n; base = c.base + c.k + 1 {
			if !yield(base, buf[:c.fill(buf)]) {
				return
			}
		}
	}
}

// Expand returns all of t's records in a new slice, at 48 bytes per record:
// for tests and small tools, where the pipeline uses Batches.
func (t *Trace) Expand() []Record {
	c, recs := newCursor(t, t.n)
	c.fill(recs)
	return recs
}

// lane accumulates one column of a trace under construction in chunks that
// double up to laneChunk elements, so no column is regrown and copied while
// the trace's length is unknown; finish allocates it once, at its length.
type lane[T any] struct {
	full [][]T
	cur  []T
}

const laneChunk = 1 << 16

func (l *lane[T]) add(v T) {
	if len(l.cur) == cap(l.cur) {
		l.full = append(l.full, l.cur)
		l.cur = make([]T, 0, min(max(2*cap(l.cur), 64), laneChunk))
	}
	l.cur = append(l.cur, v)
}

func (l *lane[T]) finish() []T {
	n := len(l.cur)
	for _, c := range l.full {
		n += len(c)
	}
	out := make([]T, 0, n)
	for _, c := range append(l.full, l.cur) {
		out = append(out, c...)
	}
	return out
}

// builder compacts a record stream, appended in trace order, into a Trace.
type builder struct {
	name, target string
	n, loads     int
	word         uint64 // Taken bits of the records since the last full word
	next         uint64 // the last record's next PC
	store        uint64 // the last store's Addr
	static       []Record
	kind         []uint8  // with rowFirst on each PC's first row
	last, lastA  []uint64 // per row: its last Value and load Addr
	rowPCs       []uint64
	index        map[Record]uint32
	pcs          map[uint64]bool
	// hot is a direct-mapped PC → static row+1 cache in front of index: a
	// program's static instructions sit at distinct word addresses, so
	// almost every record finds its row here with one compare.
	hot                 [4096]uint32
	vals, sSize         lane[uint8]
	addrs, lvals, sAddr lane[uint8]
	lRows               lane[uint16]
	tAt, vAt, rAt       lane[uint32]
	taken, targs, xvals lane[uint64]
	xrows               lane[uint64]
	sAt                 lane[int32]
}

func newBuilder(name, target string) *builder {
	return &builder{name: name, target: target, index: make(map[Record]uint32), pcs: make(map[uint64]bool)}
}

// MaxRecords bounds a trace's length: record indices are 32-bit.
const MaxRecords = math.MaxInt32

// append adds recs to the trace. Callers bound the trace at MaxRecords
// records; append panics past that. Past MaxStaticRows static rows it
// returns an error wrapping ErrStaticRows, after which b is unusable.
func (b *builder) append(recs []Record) error {
	for k := range recs {
		r, i := &recs[k], b.n
		if i == MaxRecords {
			panic(fmt.Sprintf("trace: %s has more records than a trace can index", b.name))
		}
		b.n++
		cls := isa.ClassOf(r.Op)
		j := b.row(r, cls == isa.ClassLoad || cls == isa.ClassStore)
		// Any row but the first at the last record's next PC is an exception.
		if i > 0 && (r.PC != b.next || b.kind[j]&rowFirst == 0) {
			b.rAt.add(uint32(i))
			b.xrows.add(uint64(j))
		}
		b.next = r.PC + isa.InstBytes
		if cls == isa.ClassBranch {
			b.next = r.Targ
		}
		switch {
		case cls == isa.ClassLoad:
			b.lRows.add(uint16(j)) // wraps past MaxStaticRows: see below
			putDelta(&b.addrs, &b.lastA[j], r.Addr)
			putDelta(&b.lvals, &b.last[j], r.Value)
			b.loads++
		case b.kind[j]&rowVal != 0:
			putDelta(&b.vals, &b.last[j], r.Value)
		case r.Value != 0:
			b.vAt.add(uint32(i))
			b.xvals.add(r.Value)
		}
		if cls == isa.ClassStore {
			putDelta(&b.sAddr, &b.store, r.Addr)
			b.sSize.add(r.Size)
			b.sAt.add(int32(b.loads))
		}
		if r.Taken {
			b.word |= 1 << (i & 63)
		}
		if i&63 == 63 {
			b.taken.add(b.word)
			b.word = 0
		}
		if r.Targ != derivedTarg(r, cls, r.Taken) {
			b.tAt.add(uint32(i))
			b.targs.add(r.Targ)
		}
	}
	if len(b.static) > MaxStaticRows {
		return fmt.Errorf("%w: %s", ErrStaticRows, b.name)
	}
	return nil
}

// row returns the index of r's static row (r without its dynamic fields;
// mem marks a memory op, whose Addr is dynamic), adding the row on first
// sight.
func (b *builder) row(r *Record, mem bool) uint32 {
	h := &b.hot[(r.PC/isa.InstBytes)%uint64(len(b.hot))]
	if j := *h; j != 0 {
		// Field by field: the compiler's struct equality compares
		// around the padding, several times slower.
		s := &b.static[j-1]
		if s.PC == r.PC && s.Imm == r.Imm && s.Op == r.Op && s.Rd == r.Rd && s.Ra == r.Ra &&
			s.Rb == r.Rb && s.Class == r.Class && s.Size == r.Size && (mem || s.Addr == r.Addr) {
			return j - 1
		}
	}
	s := Record{PC: r.PC, Imm: r.Imm, Op: r.Op, Rd: r.Rd, Ra: r.Ra, Rb: r.Rb, Class: r.Class, Size: r.Size}
	if !mem {
		s.Addr = r.Addr
	}
	j, ok := b.index[s]
	if !ok {
		j = uint32(len(b.static))
		kind := classKind[isa.ClassOf(s.Op)]
		if _, dest := isa.Dest(s.Inst()); dest || kind&rowStore != 0 {
			kind |= rowVal
		}
		if !b.pcs[s.PC] {
			kind |= rowFirst
		}
		b.static, b.rowPCs, b.kind = append(b.static, s), append(b.rowPCs, s.PC), append(b.kind, kind)
		b.last, b.lastA = append(b.last, 0), append(b.lastA, 0)
		b.index[s], b.pcs[s.PC] = j, true
	}
	*h = j + 1
	return j
}

// classKind is each class's row kind, but rowVal.
var classKind = [isa.NumClasses]uint8{isa.ClassLoad: rowLoad, isa.ClassStore: rowStore, isa.ClassBranch: rowBranch}

// trace finishes the lanes at their exact lengths, derives the row tables
// and returns the trace. The builder must not be used afterwards.
func (b *builder) trace() *Trace {
	if b.n&63 != 0 {
		b.taken.add(b.word)
	}
	t := &Trace{
		Name: b.name, Target: b.target, n: b.n, static: slices.Clone(b.static), kind: slices.Clone(b.kind),
		vals: b.vals.finish(), taken: b.taken.finish(), targX: sparse{b.tAt.finish(), b.targs.finish()},
		valX: sparse{b.vAt.finish(), b.xvals.finish()}, rowX: sparse{b.rAt.finish(), b.xrows.finish()},
		mem: MemOps{
			LoadRows: b.lRows.finish(), RowPCs: slices.Clone(b.rowPCs), StoreSizes: b.sSize.finish(), StoreAt: b.sAt.finish(),
			addrs: b.addrs.finish(), values: b.lvals.finish(), storeAddrs: b.sAddr.finish(),
		},
	}
	t.byPC = make([]uint16, len(t.static))
	for j := range t.byPC {
		t.byPC[j] = uint16(j)
	}
	slices.SortStableFunc(t.byPC, func(x, y uint16) int { return cmp.Compare(t.static[x].PC, t.static[y].PC) })
	// succ: each successor row, with above it how many rows after it in
	// number follow it in turn, up to a branch.
	run := make([]uint32, len(t.static)+1)
	for j := len(t.static) - 2; j >= 0; j-- {
		if t.kind[j]&rowBranch == 0 && t.rowAt(t.static[j].PC+isa.InstBytes) == uint16(j+1) {
			run[j] = run[j+1] + 1
		}
	}
	t.succ = make([]uint64, len(t.static))
	for j := range t.static {
		s := &t.static[j]
		nt, tk := t.rowAt(s.PC+isa.InstBytes), t.rowAt(derivedTarg(s, isa.ClassOf(s.Op), true))
		if t.kind[j]&rowBranch == 0 {
			tk = nt
		}
		t.succ[j] = uint64(run[tk]<<16|uint32(tk))<<32 | uint64(run[nt]<<16|uint32(nt))
	}
	return t
}

// FromRecords compacts recs into a Trace; t.Expand() returns recs exactly.
// It panics if recs hold more than MaxStaticRows distinct static rows.
func FromRecords(name, target string, recs []Record) *Trace {
	b := newBuilder(name, target)
	if err := b.append(recs); err != nil {
		panic(err.Error())
	}
	return b.trace()
}

// Collect drains src into a Trace with the given header, compacting each
// batch as it arrives. The caller bounds src at MaxRecords records; past
// MaxStaticRows static rows it returns an error wrapping ErrStaticRows.
func Collect(name, target string, src BatchSource) (*Trace, error) {
	b, buf := newBuilder(name, target), make([]Record, batchRecords)
	for {
		n, err := src.NextBatch(buf)
		if err := b.append(buf[:n]); err != nil {
			return nil, err
		}
		if err == io.EOF {
			return b.trace(), nil
		}
		if err != nil {
			return nil, err
		}
	}
}
