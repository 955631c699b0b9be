package trace

import (
	"fmt"
	"io"
	"iter"
	"math"
	"slices"
	"unsafe"

	"lvp/internal/isa"
)

// Trace is an in-memory dynamic instruction trace, stored the way the
// paper's §5 traces record dynamic facts against a static binary:
//
//   - static: each distinct static row once — a Record with Value, Taken,
//     Targ and (on memory ops) Addr zeroed, keyed by the whole remaining
//     tuple, so any record sequence compacts without loss — and whether
//     its records carry a Value (hasVal: a store, or a write to a register
//     other than R0);
//   - per record: its 16-bit row (sidx), Taken bit (taken, 64 per word) and,
//     on a non-load whose row carries one, Value (vals), coded for the
//     paper's value locality: the uvarint of the zigzagged difference from
//     the previous Value on the same row (0 before the row's first), so a
//     row repeating its last Value costs one byte;
//   - sparse exceptions: Targs other than derivedTarg (JALR; targX) and
//     nonzero Values on rows that carry none (valX; none in VM traces);
//   - mem: the memory-op lanes, holding every load's row, Addr and Value
//     and every store's Addr: about 8.3 B/record in all on the suite.
//
// A Trace is immutable once built and safe to share. The timing models and
// the dataflow analysis read the rows and lanes directly (Rows, Mem);
// records materialize only in the reused buffer behind Batches, which the
// other walks and the writers read.
type Trace struct {
	Name   string // benchmark name, e.g. "grep"
	Target string // codegen target, e.g. "ppc" or "axp"

	static      []Record
	hasVal      []bool
	sidx        []uint16
	vals        []byte
	taken       []uint64
	targX, valX sparse // Targ and Value exceptions
	mem         MemOps
}

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

// MemOps is a trace's memory-op lanes: every load and every store, in trace
// order, shared read-only by every consumer of the memory-op stream (each
// LVP unit configuration annotated over the trace, each zoo family, each
// timing model).
type MemOps struct {
	// Load lanes: load i executed static row LoadRows[i] at PC
	// RowPCs[LoadRows[i]] (one per row), read Addrs[i] and returned Values[i].
	LoadRows []uint16
	RowPCs   []uint64
	Addrs    []uint64
	Values   []uint64

	// Store lanes: store k wrote StoreSizes[k] bytes at StoreAddrs[k] after
	// the first StoreAt[k] loads of the stream and before the rest.
	StoreAddrs []uint64
	StoreSizes []uint8
	StoreAt    []int32
}

// Len reports the number of dynamic loads.
func (m MemOps) Len() int { return len(m.LoadRows) }

// Rows is a read-only view of a trace's per-record structure, for the walks
// that read the trace without expanding its records (the timing models and
// the dataflow analysis): each derives what it needs once per static row,
// then reads one row index per record, takes the dynamic fields from the
// memory-op lanes, and rebuilds only the branches (Branch).
type Rows struct {
	// Static holds each distinct static row once: a Record with Value,
	// Taken and Targ zeroed, and Addr zeroed on memory ops.
	Static []Record
	// Sidx[i] is record i's row in Static.
	Sidx []uint16

	taken []uint64
	targX sparse
}

// Rows returns the trace's row view (shared; read only).
func (t *Trace) Rows() Rows {
	return Rows{Static: t.static, Sidx: t.sidx, taken: t.taken, targX: t.targX}
}

// Branch rebuilds record i, a branch, into r from its row: the static
// fields, its Taken bit and its Targ (Value zero). tx is the caller's
// position in the Targ exceptions, at most the first one at or after i;
// calls must come in increasing i, and each moves tx past i.
func (v *Rows) Branch(i int, tx *int, r *Record) {
	*r = v.Static[v.Sidx[i]]
	r.Taken = v.taken[i>>6]>>(i&63)&1 != 0
	r.Targ = derivedTarg(r, isa.ClassOf(r.Op), r.Taken)
	if targ, ok := v.targX.get(i, tx); ok {
		r.Targ = targ
	}
}

// Scatter expands load-order states (one per load, len(states) = Mem().Len())
// into the per-record annotation of t: the k-th load record (the next record
// on the k-th load's row) gets states[k], and every other record PredNone.
func (t *Trace) Scatter(states []PredState) Annotation {
	ann := make(Annotation, len(t.sidx))
	k, rows := 0, t.mem.LoadRows
	for i, s := range t.sidx {
		if k < len(rows) && rows[k] == s {
			ann[i] = states[k]
			k++
		}
	}
	return ann
}

// Len reports the number of records.
func (t *Trace) Len() int { return len(t.sidx) }

// Mem returns the trace's memory-op lanes (shared; read only).
func (t *Trace) Mem() MemOps { return t.mem }

// ResidentBytes is the memory the trace holds: every lane's capacity times
// its element size, memory-op lanes, static rows and row tables included.
func (t *Trace) ResidentBytes() int64 {
	m := &t.mem
	return int64(cap(t.static))*int64(unsafe.Sizeof(Record{})) + int64(cap(t.hasVal)+cap(t.vals)+cap(m.StoreSizes)) +
		2*int64(cap(t.sidx)+cap(m.LoadRows)) + 4*int64(cap(m.StoreAt)+cap(t.targX.at)+cap(t.valX.at)) +
		8*int64(cap(t.taken)+cap(t.targX.v)+cap(t.valX.v)+cap(m.RowPCs)+cap(m.Addrs)+cap(m.Values)+cap(m.StoreAddrs))
}

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

// cursor is a read position in a Trace: the next record, the next Value
// byte, load, store and Targ and Value exception at or after it, and each
// row's last Value (the walk's own table: the Trace stays immutable).
type cursor struct {
	t                           *Trace
	i, val, load, store, tx, vx int
	last                        []uint64
}

// newCursor returns a cursor at t's start and a buffer of n records, the
// cursor's per-row table taken from the same allocation.
func newCursor(t *Trace, n int) (cursor, []Record) {
	const words = int(unsafe.Sizeof(Record{}) / 8)
	buf := make([]Record, n+(len(t.static)+words-1)/words)
	last := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(buf[n:]))), len(t.static))
	return cursor{t: t, last: last}, buf[:n:n]
}

// fill expands the next records into buf and returns how many it wrote.
// The lane positions live in locals for the loop, which writes through
// the record pointer.
func (c *cursor) fill(buf []Record) int {
	t, m := c.t, &c.t.mem
	n := min(len(buf), len(t.sidx)-c.i)
	val, load, store, tx, vx, vals, last := c.val, c.load, c.store, c.tx, c.vx, t.vals, c.last
	for k, s := range t.sidx[c.i : c.i+n] {
		i, r := c.i+k, &buf[k]
		*r = t.static[s]
		r.Taken = t.taken[i>>6]>>(i&63)&1 != 0
		cls := isa.ClassOf(r.Op)
		switch {
		case cls == isa.ClassLoad:
			r.Addr, r.Value = m.Addrs[load], m.Values[load]
			load++
		case t.hasVal[s]:
			var z uint64
			for shift := 0; ; shift += 7 {
				b := vals[val]
				val++
				z |= uint64(b&0x7f) << shift
				if b < 0x80 {
					break
				}
			}
			last[s] += z>>1 ^ -(z & 1)
			r.Value = last[s]
		default:
			r.Value, _ = t.valX.get(i, &vx)
		}
		switch cls {
		case isa.ClassStore:
			r.Addr = m.StoreAddrs[store]
			store++
		case isa.ClassBranch:
			r.Targ = derivedTarg(r, cls, r.Taken)
		}
		if targ, ok := t.targX.get(i, &tx); ok {
			r.Targ = targ
		}
	}
	c.i, c.val, c.load, c.store, c.tx, c.vx = c.i+n, val, load, store, tx, vx
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
		c, buf := newCursor(t, min(t.Len(), batchRecords))
		for base := 0; base < t.Len(); base = c.i {
			if !yield(base, buf[:c.fill(buf)]) {
				return
			}
		}
	}
}

// Expand returns all of t's records in a new slice, at 48 bytes per record:
// for tests and small tools, where the pipeline uses Batches.
func (t *Trace) Expand() []Record {
	c, recs := newCursor(t, t.Len())
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
	static       []Record
	hasVal       []bool
	last, rowPCs []uint64 // per row: its last Value in vals, its PC
	index        map[Record]uint32
	// hot is a direct-mapped PC → static row+1 cache in front of index: a
	// program's static instructions sit at distinct word addresses, so
	// almost every record finds its row here with one compare.
	hot                 [4096]uint32
	vals, sSize         lane[uint8]
	sidx, lRows         lane[uint16]
	tAt, vAt            lane[uint32]
	taken, targs, xvals lane[uint64]
	addrs, lvals, sAddr lane[uint64]
	sAt                 lane[int32]
}

func newBuilder(name, target string) *builder {
	return &builder{name: name, target: target, index: make(map[Record]uint32)}
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
		b.sidx.add(uint16(j)) // wraps past MaxStaticRows: see below
		switch {
		case cls == isa.ClassLoad:
			b.lRows.add(uint16(j))
			b.addrs.add(r.Addr)
			b.lvals.add(r.Value)
			b.loads++
		case b.hasVal[j]:
			d := r.Value - b.last[j]
			b.last[j] = r.Value
			z := d<<1 ^ uint64(int64(d)>>63)
			for ; z >= 0x80; z >>= 7 {
				b.vals.add(byte(z) | 0x80)
			}
			b.vals.add(byte(z))
		case r.Value != 0:
			b.vAt.add(uint32(i))
			b.xvals.add(r.Value)
		}
		if cls == isa.ClassStore {
			b.sAddr.add(r.Addr)
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
		_, dest := isa.Dest(s.Inst())
		b.static, b.rowPCs, b.last = append(b.static, s), append(b.rowPCs, s.PC), append(b.last, 0)
		b.hasVal = append(b.hasVal, dest || isa.IsStore(s.Op))
		b.index[s] = j
	}
	*h = j + 1
	return j
}

// trace finishes the lanes at their exact lengths and returns the trace.
// The builder must not be used afterwards.
func (b *builder) trace() *Trace {
	if b.n&63 != 0 {
		b.taken.add(b.word)
	}
	return &Trace{
		Name: b.name, Target: b.target, static: slices.Clone(b.static), hasVal: slices.Clone(b.hasVal),
		sidx: b.sidx.finish(), vals: b.vals.finish(), taken: b.taken.finish(),
		targX: sparse{b.tAt.finish(), b.targs.finish()}, valX: sparse{b.vAt.finish(), b.xvals.finish()},
		mem: MemOps{
			LoadRows: b.lRows.finish(), RowPCs: slices.Clone(b.rowPCs), Addrs: b.addrs.finish(), Values: b.lvals.finish(),
			StoreAddrs: b.sAddr.finish(), StoreSizes: b.sSize.finish(), StoreAt: b.sAt.finish(),
		},
	}
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
