package trace

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lvp/internal/isa"
)

// compactSeeds are hand-built record sequences the compact layout must keep
// exactly, including records no VM or decoder produces: one PC carrying two
// different static instructions, Taken on a non-branch, a branch whose Targ
// disagrees with its Imm, a non-memory record with an Addr, a non-branch
// with a Targ, and a JALR (whose target is never derivable).
var compactSeeds = [][]Record{
	nil,
	{{PC: 0x1000, Op: isa.HALT}},
	{
		{PC: 0x1000, Op: isa.ADD, Rd: 3, Ra: 1, Rb: 2, Value: 7},
		{PC: 0x1000, Op: isa.LD, Rd: 4, Ra: 3, Imm: 8, Addr: 0x2008, Value: 9, Size: 8, Class: isa.LoadIntData},
		{PC: 0x1000, Op: isa.LD, Rd: 4, Ra: 3, Imm: 8, Addr: 0x2010, Value: 9, Size: 4, Class: isa.LoadIntData},
	},
	{
		{PC: 0x1004, Op: isa.ADD, Rd: 3, Taken: true},
		{PC: 0x1008, Op: isa.BEQ, Ra: 4, Imm: 0x1000, Taken: true, Targ: 0x1234},
		{PC: 0x100c, Op: isa.BNE, Ra: 4, Imm: 0x1000, Taken: false, Targ: 0x1010},
		{PC: 0x1010, Op: isa.JALR, Rd: 31, Ra: 5, Taken: true, Targ: 0x4444},
		{PC: 0x1014, Op: isa.ADDI, Rd: 1, Addr: 0xdead, Targ: 0xbeef, Size: 3},
		{PC: 0x1018, Op: isa.SD, Ra: 3, Rb: 4, Addr: 0x2000, Value: 5, Size: 8, Taken: true},
		{PC: 0x101c, Op: isa.JAL, Rd: 31, Imm: 0x1000, Taken: false, Targ: 0x1020},
	},
	// Nonzero Values on rows that carry none (the Value exceptions), each
	// row seen again with a zero Value, between rows that do carry one.
	{
		{PC: 0x1000, Op: isa.BEQ, Ra: 4, Imm: 0x1000, Value: 5, Targ: 0x1004},
		{PC: 0x1004, Op: isa.ADD, Rd: 0, Ra: 1, Rb: 2, Value: 7},
		{PC: 0x1008, Op: isa.ADD, Rd: 3, Ra: 1, Rb: 2, Value: 0},
		{PC: 0x100c, Op: isa.OUT, Ra: 3, Value: 1 << 63},
		{PC: 0x1000, Op: isa.BEQ, Ra: 4, Imm: 0x1000, Targ: 0x1004},
		{PC: 0x1010, Op: isa.JAL, Rd: 0, Imm: 0x1000, Taken: true, Targ: 0x1000, Value: 9},
		{PC: 0x1014, Op: isa.SD, Ra: 3, Rb: 4, Addr: 0x2000, Value: 0, Size: 8},
		{PC: 0x1018, Op: isa.FADD, Rd: 0, Ra: 1, Rb: 2, Value: 3},
		{PC: 0x101c, Op: isa.NOP, Value: 2},
		{PC: 0x1004, Op: isa.ADD, Rd: 0, Ra: 1, Rb: 2},
		{PC: 0x1020, Op: isa.HALT, Value: 11},
	},
}

// recordSource is a BatchSource over a record slice.
type recordSource []Record

func (s *recordSource) NextBatch(buf []Record) (int, error) {
	if len(*s) == 0 {
		return 0, io.EOF
	}
	n := copy(buf, *s)
	*s = (*s)[n:]
	return n, nil
}

// staticRows counts recs' distinct static rows: records keyed without
// their dynamic fields (Value, Taken, Targ, and Addr on memory ops).
func staticRows(recs []Record) int {
	rows := make(map[Record]bool)
	for _, r := range recs {
		r.Value, r.Taken, r.Targ = 0, false, 0
		if r.IsLoad() || r.IsStore() {
			r.Addr = 0
		}
		rows[r] = true
	}
	return len(rows)
}

// recordBytes is one record's fuzz encoding: 48 bytes in Record field order.
const recordBytes = 48

func encodeRecords(recs []Record) []byte {
	var b []byte
	for _, r := range recs {
		b = binary.LittleEndian.AppendUint64(b, r.PC)
		b = binary.LittleEndian.AppendUint64(b, r.Addr)
		b = binary.LittleEndian.AppendUint64(b, r.Value)
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Imm))
		b = append(b, byte(r.Op), byte(r.Rd), byte(r.Ra), byte(r.Rb), byte(r.Class), r.Size)
		if r.Taken {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint64(b, r.Targ)
	}
	return b
}

// decodeRecords turns arbitrary bytes into records. Opcode bytes are taken
// modulo isa.NumOps and registers and classes are kept in range, the way
// every reader hands them to a Trace; every other field is arbitrary.
func decodeRecords(b []byte) []Record {
	var recs []Record
	for ; len(b) >= recordBytes; b = b[recordBytes:] {
		u := binary.LittleEndian.Uint64
		recs = append(recs, Record{
			PC: u(b), Addr: u(b[8:]), Value: u(b[16:]), Imm: int64(u(b[24:])),
			Op: isa.Op(int(b[32]) % isa.NumOps), Rd: isa.Reg(b[33] % isa.NumRegs),
			Ra: isa.Reg(b[34] % isa.NumRegs), Rb: isa.Reg(b[35] % isa.NumRegs),
			Class: isa.LoadClass(b[36] % byte(isa.NumLoadClasses)), Size: b[37],
			Taken: b[38]&1 != 0, Targ: u(b[40:]),
		})
	}
	return recs
}

// checkCompact requires Collect over recs to give recs back exactly through
// every reader: Expand and Batches; its memory-op lanes to hold the loads
// (with each load's row and PC) and stores in order; its row view to
// rebuild every branch but its Value; its Value exceptions to be exactly
// the nonzero Values on rows that carry none; and Scatter to put the k-th
// of a list of load states on the k-th load. Input with more than
// MaxStaticRows static rows must fail with ErrStaticRows.
func checkCompact(t *testing.T, recs []Record) {
	t.Helper()
	src := recordSource(recs)
	tr, err := Collect("fuzz", "ppc", &src)
	if staticRows(recs) > MaxStaticRows {
		if !errors.Is(err, ErrStaticRows) || tr != nil {
			t.Fatalf("%d static rows: Collect = %v, %v; want ErrStaticRows", staticRows(recs), tr, err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(recs))
	}
	if got := tr.Expand(); len(recs) > 0 && !reflect.DeepEqual(got, recs) {
		t.Fatalf("Expand differs:\n got %+v\nwant %+v", got, recs)
	}
	n := 0
	for base, batch := range tr.Batches() {
		if base != n || !reflect.DeepEqual(batch, recs[n:n+len(batch)]) {
			t.Fatalf("batch at %d (want %d) differs", base, n)
		}
		n += len(batch)
	}
	m, rows := tr.Mem(), tr.Rows()
	states := make([]PredState, m.Len())
	for k := range states {
		states[k] = PredState(k*7/3) % NumPredStates
	}
	ann := tr.Scatter(states)
	if len(ann) != len(recs) {
		t.Fatalf("Scatter gave %d states for %d records", len(ann), len(recs))
	}
	for j, s := range rows.Static {
		if m.RowPCs[j] != s.PC {
			t.Fatalf("RowPCs[%d] = %#x, want row %d's PC %#x", j, m.RowPCs[j], j, s.PC)
		}
	}
	if len(m.RowPCs) != len(rows.Static) {
		t.Fatalf("%d row PCs for %d static rows", len(m.RowPCs), len(rows.Static))
	}
	loads, stores, tx, valX := 0, 0, 0, 0
	for i, r := range recs {
		if _, dest := isa.Dest(r.Inst()); !r.IsLoad() && !r.IsStore() && !dest && r.Value != 0 {
			valX++
		}
		if r.IsBranch() {
			want := r
			want.Value = 0
			var got Record
			if rows.Branch(i, &tx, &got); got != want {
				t.Fatalf("Rows().Branch(%d) = %+v, want %+v", i, got, want)
			}
		}
		want := PredNone
		if r.IsLoad() {
			want = states[loads]
		}
		if ann[i] != want {
			t.Fatalf("Scatter: record %d has %v, want %v", i, ann[i], want)
		}
		switch {
		case r.IsLoad():
			row := m.LoadRows[loads]
			if row != rows.Sidx[i] || m.RowPCs[row] != r.PC || m.Addrs[loads] != r.Addr || m.Values[loads] != r.Value {
				t.Fatalf("load lane %d does not match record %d", loads, i)
			}
			loads++
		case r.IsStore():
			if m.StoreAddrs[stores] != r.Addr || m.StoreSizes[stores] != r.Size || int(m.StoreAt[stores]) != loads {
				t.Fatalf("store lane %d does not match record %d", stores, i)
			}
			stores++
		}
	}
	if loads != m.Len() || stores != len(m.StoreAddrs) {
		t.Fatalf("lanes hold %d loads and %d stores, want %d and %d", m.Len(), len(m.StoreAddrs), loads, stores)
	}
	if len(tr.valX.at) != valX {
		t.Fatalf("%d Value exceptions, want %d", len(tr.valX.at), valX)
	}
}

// TestStaticRowsBound drives a trace to MaxStaticRows distinct static rows,
// which compacts and expands back exactly, and one past it, which Collect
// and ReadAll of a VLT2 file reject with ErrStaticRows and FromRecords
// panics on.
func TestStaticRowsBound(t *testing.T) {
	recs := make([]Record, MaxStaticRows+1)
	for i := range recs {
		recs[i] = Record{PC: 0x1000 + isa.InstBytes*uint64(i), Op: isa.ADD, Rd: 3, Ra: 1, Rb: 2, Value: uint64(i)}
	}
	at := FromRecords("at", "ppc", recs[:MaxStaticRows])
	if rows := at.Rows(); len(rows.Static) != MaxStaticRows || rows.Sidx[MaxStaticRows-1] != MaxStaticRows-1 {
		t.Fatalf("%d static rows, last record on row %d", len(rows.Static), rows.Sidx[MaxStaticRows-1])
	}
	if !reflect.DeepEqual(at.Expand(), recs[:MaxStaticRows]) {
		t.Fatal("a trace of MaxStaticRows rows does not expand to its input")
	}

	src := recordSource(recs)
	if tr, err := Collect("past", "ppc", &src); !errors.Is(err, ErrStaticRows) || tr != nil {
		t.Fatalf("Collect past MaxStaticRows = %v, %v; want ErrStaticRows", tr, err)
	}
	d, err := NewIndexedReaderBytes(encodeRecordsVLT2("past", "ppc", recs, Writer2Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := ReadAll(d); !errors.Is(err, ErrStaticRows) || tr != nil {
		t.Fatalf("ReadAll past MaxStaticRows = %v, %v; want ErrStaticRows", tr, err)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "MaxStaticRows") {
			t.Fatalf("FromRecords past MaxStaticRows panicked with %q", msg)
		}
	}()
	FromRecords("past", "ppc", recs)
	t.Fatal("FromRecords past MaxStaticRows did not panic")
}

// FuzzTraceCompact builds a trace from arbitrary records with FromRecords,
// expands it, and requires the exact input back. The seeds run under plain
// go test.
func FuzzTraceCompact(f *testing.F) {
	for _, s := range compactSeeds {
		f.Add(encodeRecords(s))
	}
	f.Add(encodeRecords(genTrace(300).Expand()))
	for _, c := range valueLaneCases() {
		f.Add(encodeRecords(c.recs))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCompact(t, decodeRecords(data))
	})
}

// valueLaneCase is a hand-built register and store Value sequence and the
// bytes it costs in the Value lane: per record, the uvarint of the
// zigzagged difference from the previous Value on its row (0 before the
// row's first). The difference wraps, so 0 ↔ MaxUint64 is a step of ∓1.
type valueLaneCase struct {
	name  string
	recs  []Record
	bytes int
}

func valueLaneCases() []valueLaneCase {
	add := func(pc, v uint64) Record { return Record{PC: pc, Op: isa.ADD, Rd: 3, Ra: 1, Rb: 2, Value: v} }
	store := func(v uint64) Record {
		return Record{PC: 0x2000, Op: isa.SD, Ra: 3, Rb: 4, Addr: 0x8000, Value: v, Size: 8}
	}
	load := Record{PC: 0x3000, Op: isa.LD, Rd: 5, Ra: 3, Addr: 0x8000, Value: math.MaxUint64, Size: 8, Class: isa.LoadIntData}
	repeat := make([]Record, 10)
	for i := range repeat {
		repeat[i] = add(0x1000, 0)
	}
	return []valueLaneCase{
		{"repeat", repeat, 10},
		{"nonzero first", []Record{add(0x1000, 0x1234), add(0x1000, 0x1234), add(0x1000, 0x1234)}, 2 + 1 + 1},
		{"MinInt64 step", []Record{store(0), store(1 << 63), store(0)}, 1 + 10 + 10},
		{"0-MaxInt64 flips", []Record{add(0x1000, 0), add(0x1000, math.MaxInt64), add(0x1000, 0)}, 1 + 10 + 10},
		{"0-MaxUint64 flips", []Record{store(0), store(math.MaxUint64), store(0), store(math.MaxUint64)}, 4},
		{"interleaved rows", []Record{
			add(0x1000, 100), store(5000), load, add(0x1000, 101), store(5000), load, add(0x1000, 102), store(4999),
		}, 2 + 2 + 1 + 1 + 1 + 1},
	}
}

// TestValueLaneCoding pins the Value lane's coding on hand-built traces:
// each round-trips through Expand and Batches, costs its bytes in the lane
// (load Values stay in the load lanes), and ResidentBytes counts the lane
// at one byte per element.
func TestValueLaneCoding(t *testing.T) {
	for _, c := range valueLaneCases() {
		t.Run(c.name, func(t *testing.T) {
			checkCompact(t, c.recs)
			tr := FromRecords("", "", c.recs)
			if len(tr.vals) != c.bytes {
				t.Fatalf("Value lane holds %d bytes, want %d", len(tr.vals), c.bytes)
			}
			bare := *tr
			bare.vals = nil
			if d := tr.ResidentBytes() - bare.ResidentBytes(); d != int64(c.bytes) {
				t.Fatalf("ResidentBytes counts the %d-byte Value lane as %d bytes", c.bytes, d)
			}
		})
	}
}

// TestConcurrentWalks walks one trace from several goroutines at once: each
// walk decodes the Value lane against its own per-row table, so every walk
// reads the records Expand gives.
func TestConcurrentWalks(t *testing.T) {
	tr := genTrace(4 * batchRecords)
	want := tr.Expand()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for base, batch := range tr.Batches() {
				if !reflect.DeepEqual(batch, want[base:base+len(batch)]) {
					t.Errorf("a concurrent walk differs in the batch at record %d", base)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemOpsLanes pins the memory-op lane layout on a small hand-built
// trace: load lanes in trace order (each load's static row, and every
// row's PC), store lanes with their position in the load stream, and
// Scatter's mapping of load order onto the records.
func TestMemOpsLanes(t *testing.T) {
	load := func(pc, addr, value uint64) Record {
		return Record{PC: pc, Op: isa.LD, Rd: 3, Ra: 1, Addr: addr, Value: value, Size: 8, Class: isa.LoadIntData}
	}
	store := func(addr uint64, size uint8) Record {
		return Record{PC: 0x5000, Op: isa.SW, Ra: 1, Rb: 3, Addr: addr, Size: size}
	}
	recs := []Record{
		store(0x10, 8),            // before any load
		load(0x100, 0x20, 1),      // load 0, record 1
		{PC: 0x104, Op: isa.ADD},  // neither
		load(0x108, 0x28, 2),      // load 1, record 3
		store(0x30, 4),            // after two loads
		store(0x38, 2),            // back-to-back
		load(0x110, 0x40, 3),      // load 2, record 6
		{PC: 0x114, Op: isa.HALT}, // neither
		store(0x48, 1),            // trailing
	}
	want := MemOps{
		LoadRows:   []uint16{1, 3, 6},
		RowPCs:     []uint64{0x5000, 0x100, 0x104, 0x108, 0x5000, 0x5000, 0x110, 0x114, 0x5000},
		Addrs:      []uint64{0x20, 0x28, 0x40},
		Values:     []uint64{1, 2, 3},
		StoreAddrs: []uint64{0x10, 0x30, 0x38, 0x48},
		StoreSizes: []uint8{8, 4, 2, 1},
		StoreAt:    []int32{0, 2, 2, 3},
	}
	tr := FromRecords("", "", recs)
	if m := tr.Mem(); !reflect.DeepEqual(m, want) {
		t.Fatalf("lanes = %+v\nwant    %+v", m, want)
	}
	ann := tr.Scatter([]PredState{PredCorrect, PredIncorrect, PredConstant})
	wantAnn := Annotation{0, PredCorrect, 0, PredIncorrect, 0, 0, PredConstant, 0, 0}
	if !reflect.DeepEqual(ann, wantAnn) {
		t.Fatalf("Scatter = %v, want %v", ann, wantAnn)
	}
}

// TestBuilderLanes drives the trace builder across its chunk boundaries (traces
// of 0 to 3 chunks and one record either side), in batches that do not
// divide a chunk: every lane is allocated at exactly its final length, and
// the trace expands to its input. Every branch carries a nonzero Value, so
// the Value exception lane crosses the chunk boundaries too. Record i's
// Value is i, so each row steps by 5 and every coded Value is one byte:
// the Value lane's length is its count of Values.
func TestBuilderLanes(t *testing.T) {
	shapes := genTrace(5).Expand() // ALU, load, store, branch, ALU
	for _, n := range []int{0, 1, 63, 64, 65, laneChunk - 1, laneChunk, laneChunk + 1, 3 * laneChunk} {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = shapes[i%len(shapes)]
			recs[i].Value = uint64(i)
		}
		b := newBuilder("b", "ppc")
		for i := 0; i < n; i += 1000 {
			b.append(recs[i:min(i+1000, n)])
		}
		tr := b.trace()
		m := tr.Mem()
		for _, l := range []struct {
			name     string
			len, cap int
		}{
			{"sidx", len(tr.sidx), cap(tr.sidx)},
			{"vals", len(tr.vals), cap(tr.vals)},
			{"taken", len(tr.taken), cap(tr.taken)},
			{"targX.at", len(tr.targX.at), cap(tr.targX.at)},
			{"targX.v", len(tr.targX.v), cap(tr.targX.v)},
			{"valX.at", len(tr.valX.at), cap(tr.valX.at)},
			{"valX.v", len(tr.valX.v), cap(tr.valX.v)},
			{"LoadRows", len(m.LoadRows), cap(m.LoadRows)},
			{"Addrs", len(m.Addrs), cap(m.Addrs)},
			{"Values", len(m.Values), cap(m.Values)},
			{"StoreAddrs", len(m.StoreAddrs), cap(m.StoreAddrs)},
			{"StoreSizes", len(m.StoreSizes), cap(m.StoreSizes)},
			{"StoreAt", len(m.StoreAt), cap(m.StoreAt)},
		} {
			if l.len != l.cap {
				t.Fatalf("n=%d: lane %s has len %d, cap %d", n, l.name, l.len, l.cap)
			}
		}
		if len(tr.sidx) != n || len(tr.taken) != (n+63)/64 || m.Len()+len(tr.vals)+len(tr.valX.at) != n {
			t.Fatalf("n=%d: lanes hold %d records, %d taken words, %d+%d+%d values",
				n, len(tr.sidx), len(tr.taken), m.Len(), len(tr.vals), len(tr.valX.at))
		}
		// Records 3, 8, 13, … are the branches.
		if len(tr.valX.at) != (n+1)/len(shapes) {
			t.Fatalf("n=%d: %d Value exceptions, want one per branch", n, len(tr.valX.at))
		}
		if n > 0 && !reflect.DeepEqual(tr.Expand(), recs) {
			t.Fatalf("n=%d: trace does not expand to its input", n)
		}
	}
}
