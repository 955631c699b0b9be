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
//     tuple, so any record sequence compacts without loss;
//   - per record: its static row (sidx) and Taken bit (taken, 64 per word);
//     the Value of every record but a load, in order (vals);
//   - Targ exceptions (targAt/targs): only the records whose Targ differs
//     from derivedTarg, in practice JALR;
//   - mem: the memory-op lanes, holding every load's and store's Addr and
//     every load's Value.
//
// A Trace is immutable once built and safe to share. The timing models and
// the dataflow analysis read the rows and lanes directly (Rows, Mem);
// records materialize only in the reused buffer behind Batches, which the
// other walks and the writers read.
type Trace struct {
	Name   string // benchmark name, e.g. "grep"
	Target string // codegen target, e.g. "ppc" or "axp"

	static []Record
	sidx   []uint32
	vals   []uint64
	taken  []uint64
	targAt []uint32
	targs  []uint64
	mem    MemOps
}

// MemOps is a trace's memory-op lanes: every load and every store, in trace
// order, shared read-only by every consumer of the memory-op stream (each
// LVP unit configuration annotated over the trace, each zoo family, each
// timing model).
type MemOps struct {
	// Load lanes: load i executed at PCs[i], read Addrs[i] and returned
	// Values[i].
	PCs    []uint64
	Addrs  []uint64
	Values []uint64

	// Store lanes: store k wrote StoreSizes[k] bytes at StoreAddrs[k] after
	// the first StoreAt[k] loads of the stream and before the rest.
	StoreAddrs []uint64
	StoreSizes []uint8
	StoreAt    []int32
}

// Len reports the number of dynamic loads.
func (m MemOps) Len() int { return len(m.PCs) }

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
	Sidx []uint32

	taken  []uint64
	targAt []uint32
	targs  []uint64
}

// Rows returns the trace's row view (shared; read only).
func (t *Trace) Rows() Rows {
	return Rows{Static: t.static, Sidx: t.sidx, taken: t.taken, targAt: t.targAt, targs: t.targs}
}

// Branch rebuilds record i, a branch, into r from its row: the static
// fields, its Taken bit and its Targ (Value zero). tx is the caller's
// position in the Targ exceptions, at most the first one at or after i;
// calls must come in increasing i, and each moves tx past i.
func (v *Rows) Branch(i int, tx *int, r *Record) {
	*r = v.Static[v.Sidx[i]]
	r.Taken = v.taken[i>>6]>>(i&63)&1 != 0
	r.Targ = derivedTarg(r, isa.ClassOf(r.Op), r.Taken)
	for *tx < len(v.targAt) && int(v.targAt[*tx]) <= i {
		if int(v.targAt[*tx]) == i {
			r.Targ = v.targs[*tx]
		}
		*tx++
	}
}

// Scatter expands load-order states (one per load, len(states) = Mem().Len())
// into the per-record annotation of t: the k-th load record gets states[k],
// and every other record PredNone.
func (t *Trace) Scatter(states []PredState) Annotation {
	isLoad := make([]bool, len(t.static))
	for j := range t.static {
		isLoad[j] = isa.IsLoad(t.static[j].Op)
	}
	ann := make(Annotation, len(t.sidx))
	k := 0
	for i, s := range t.sidx {
		if isLoad[s] {
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
// its element size, memory-op lanes and static rows included.
func (t *Trace) ResidentBytes() int64 {
	m := &t.mem
	return int64(cap(t.static))*int64(unsafe.Sizeof(Record{})) + int64(cap(m.StoreSizes)) +
		4*int64(cap(t.sidx)+cap(t.targAt)+cap(m.StoreAt)) +
		8*int64(cap(t.vals)+cap(t.taken)+cap(t.targs)+cap(m.PCs)+cap(m.Addrs)+cap(m.Values)+cap(m.StoreAddrs))
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

// cursor is a read position in a Trace: the next record, and the next
// non-load Value, load, store and Targ exception at or after it.
type cursor struct {
	t                       *Trace
	i, val, load, store, tx int
}

// fill expands the next records into buf and returns how many it wrote.
// The lane positions live in locals for the loop, which writes through
// the record pointer.
func (c *cursor) fill(buf []Record) int {
	t, m := c.t, &c.t.mem
	n := min(len(buf), len(t.sidx)-c.i)
	val, load, store, tx := c.val, c.load, c.store, c.tx
	for k, s := range t.sidx[c.i : c.i+n] {
		i, r := c.i+k, &buf[k]
		*r = t.static[s]
		r.Taken = t.taken[i>>6]>>(i&63)&1 != 0
		cls := isa.ClassOf(r.Op)
		if cls == isa.ClassLoad {
			r.Addr, r.Value = m.Addrs[load], m.Values[load]
			load++
		} else {
			r.Value = t.vals[val]
			val++
		}
		switch cls {
		case isa.ClassStore:
			r.Addr = m.StoreAddrs[store]
			store++
		case isa.ClassBranch:
			r.Targ = derivedTarg(r, cls, r.Taken)
		}
		if tx < len(t.targAt) && t.targAt[tx] == uint32(i) {
			r.Targ = t.targs[tx]
			tx++
		}
	}
	c.i, c.val, c.load, c.store, c.tx = c.i+n, val, load, store, tx
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
		c := cursor{t: t}
		buf := make([]Record, min(t.Len(), batchRecords))
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
	recs := make([]Record, t.Len())
	(&cursor{t: t}).fill(recs)
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
	index        map[Record]uint32
	// hot is a direct-mapped PC → static row+1 cache in front of index: a
	// program's static instructions sit at distinct word addresses, so
	// almost every record finds its row here with one compare.
	hot                      [4096]uint32
	sidx, tAt                lane[uint32]
	vals, taken, targs       lane[uint64]
	pcs, addrs, lvals, sAddr lane[uint64]
	sAt                      lane[int32]
	sSize                    lane[uint8]
}

func newBuilder(name, target string) *builder {
	return &builder{name: name, target: target, index: make(map[Record]uint32)}
}

// MaxRecords bounds a trace's length: record indices are 32-bit.
const MaxRecords = math.MaxInt32

// append adds recs to the trace. Callers bound the trace at MaxRecords
// records; append panics past that.
func (b *builder) append(recs []Record) {
	for k := range recs {
		r, i := &recs[k], b.n
		if i == MaxRecords {
			panic(fmt.Sprintf("trace: %s has more records than a trace can index", b.name))
		}
		b.n++
		cls := isa.ClassOf(r.Op)
		switch cls {
		case isa.ClassLoad:
			b.pcs.add(r.PC)
			b.addrs.add(r.Addr)
			b.lvals.add(r.Value)
			b.loads++
		case isa.ClassStore:
			b.sAddr.add(r.Addr)
			b.sSize.add(r.Size)
			b.sAt.add(int32(b.loads))
			b.vals.add(r.Value)
		default:
			b.vals.add(r.Value)
		}
		b.sidx.add(b.row(r, cls == isa.ClassLoad || cls == isa.ClassStore))
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
		b.static = append(b.static, s)
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
		Name: b.name, Target: b.target, static: slices.Clone(b.static),
		sidx: b.sidx.finish(), vals: b.vals.finish(), taken: b.taken.finish(),
		targAt: b.tAt.finish(), targs: b.targs.finish(),
		mem: MemOps{
			PCs: b.pcs.finish(), Addrs: b.addrs.finish(), Values: b.lvals.finish(),
			StoreAddrs: b.sAddr.finish(), StoreSizes: b.sSize.finish(), StoreAt: b.sAt.finish(),
		},
	}
}

// FromRecords compacts recs into a Trace; t.Expand() returns recs exactly.
func FromRecords(name, target string, recs []Record) *Trace {
	b := newBuilder(name, target)
	b.append(recs)
	return b.trace()
}

// Collect drains src into a Trace with the given header, compacting each
// batch as it arrives. The caller bounds src at MaxRecords records.
func Collect(name, target string, src BatchSource) (*Trace, error) {
	b, buf := newBuilder(name, target), make([]Record, batchRecords)
	for {
		n, err := src.NextBatch(buf)
		b.append(buf[:n])
		if err == io.EOF {
			return b.trace(), nil
		}
		if err != nil {
			return nil, err
		}
	}
}
