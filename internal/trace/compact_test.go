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

// staticKey is r's static row: r without its dynamic fields (Value, Taken,
// Targ, and Addr on memory ops).
func staticKey(r Record) Record {
	r.Value, r.Taken, r.Targ = 0, false, 0
	if r.IsLoad() || r.IsStore() {
		r.Addr = 0
	}
	return r
}

// staticRows counts recs' distinct static rows.
func staticRows(recs []Record) int {
	rows := make(map[Record]bool)
	for _, r := range recs {
		rows[staticKey(r)] = true
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
// every reader: Expand and Batches; a Walker's rows, Addrs and rebuilt
// branches (Value zero); a LoadReader's loads, in chunks of 1 to 1024, and
// stores in order; its row PCs; its Value and row exceptions to be exactly
// the nonzero Values on rows that carry none and the records off their
// predecessor's next PC's first row; and Scatter to put the k-th of a list
// of load states on the k-th load. Input with more than MaxStaticRows
// static rows must fail with ErrStaticRows.
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
	m, static := tr.Mem(), tr.Static()
	states := make([]PredState, m.Len())
	for k := range states {
		states[k] = PredState(k*7/3) % NumPredStates
	}
	ann := tr.Scatter(states)
	if len(ann) != len(recs) {
		t.Fatalf("Scatter gave %d states for %d records", len(ann), len(recs))
	}
	for j, s := range static {
		if m.RowPCs[j] != s.PC {
			t.Fatalf("RowPCs[%d] = %#x, want row %d's PC %#x", j, m.RowPCs[j], j, s.PC)
		}
	}
	if len(m.RowPCs) != len(static) {
		t.Fatalf("%d row PCs for %d static rows", len(m.RowPCs), len(static))
	}
	var loads, stores []Record
	w, valX := tr.Walk(), 0
	for i, r := range recs {
		if _, dest := isa.Dest(r.Inst()); !r.IsLoad() && !r.IsStore() && !dest && r.Value != 0 {
			valX++
		}
		if row := static[w.Next()]; row != staticKey(r) {
			t.Fatalf("Walker: record %d on row %+v, want %+v", i, row, staticKey(r))
		}
		if r.IsBranch() {
			want := r
			want.Value = 0
			var got Record
			if w.Branch(&got); got != want {
				t.Fatalf("Walker.Branch at %d = %+v, want %+v", i, got, want)
			}
		}
		want := PredNone
		if r.IsLoad() {
			want = states[len(loads)]
		}
		if ann[i] != want {
			t.Fatalf("Scatter: record %d has %v, want %v", i, ann[i], want)
		}
		switch {
		case r.IsLoad():
			if w.Addr() != r.Addr || m.RowPCs[m.LoadRows[len(loads)]] != r.PC {
				t.Fatalf("load %d does not match record %d", len(loads), i)
			}
			loads = append(loads, r)
		case r.IsStore():
			if w.Addr() != r.Addr || m.StoreSizes[len(stores)] != r.Size || int(m.StoreAt[len(stores)]) != len(loads) {
				t.Fatalf("store %d does not match record %d", len(stores), i)
			}
			stores = append(stores, r)
		}
	}
	if len(loads) != m.Len() || len(stores) != len(m.StoreSizes) {
		t.Fatalf("lanes hold %d loads and %d stores, want %d and %d", m.Len(), len(m.StoreSizes), len(loads), len(stores))
	}
	checkLoadReader(t, m, loads, stores)
	if len(tr.valX.at) != valX {
		t.Fatalf("%d Value exceptions, want %d", len(tr.valX.at), valX)
	}
	if want := rowExceptions(recs); len(tr.rowX.at) != want {
		t.Fatalf("%d row exceptions, want %d", len(tr.rowX.at), want)
	}
}

// checkLoadReader reads m through LoadReaders in chunks of 1, 7 and 1024
// loads, a Store at each StoreAt, and requires each load's PC, Addr and
// Value and each store's Addr and size from loads and stores.
func checkLoadReader(t *testing.T, m MemOps, loads, stores []Record) {
	t.Helper()
	for _, chunk := range []int{1, 7, 1024} {
		r, buf := m.Loads(), make([]uint64, 3*chunk)
		pcs, addrs, vals := buf[:chunk], buf[chunk:2*chunk], buf[2*chunk:]
		next, k := 0, 0
		for next < len(loads) || k < len(stores) {
			if k < len(stores) && int(m.StoreAt[k]) == next {
				if a, size := r.Store(); a != stores[k].Addr || size != int(stores[k].Size) {
					t.Fatalf("chunk %d: store %d = %#x, %d; want %#x, %d", chunk, k, a, size, stores[k].Addr, stores[k].Size)
				}
				k++
				continue
			}
			end := len(loads)
			if k < len(stores) {
				end = int(m.StoreAt[k])
			}
			n := r.Read(pcs[:min(chunk, end-next)], addrs, vals)
			for j, l := range loads[next : next+n] {
				if pcs[j] != l.PC || addrs[j] != l.Addr || vals[j] != l.Value {
					t.Fatalf("chunk %d: load %d = %#x, %#x, %#x; want %#x, %#x, %#x",
						chunk, next+j, pcs[j], addrs[j], vals[j], l.PC, l.Addr, l.Value)
				}
			}
			next += n
		}
		if n := r.Read(pcs, addrs, vals); n != 0 {
			t.Fatalf("chunk %d: %d loads read past the last", chunk, n)
		}
	}
}

// rowExceptions counts the records of recs that a Trace keeps in its row
// exception lane: every record but the first whose PC is not its
// predecessor's next PC (a branch's Targ, else PC + isa.InstBytes) or whose
// static row is not the first seen at its PC.
func rowExceptions(recs []Record) int {
	first, n := make(map[uint64]Record), 0
	for i, r := range recs {
		if _, ok := first[r.PC]; !ok {
			first[r.PC] = staticKey(r)
		}
		if i == 0 {
			continue
		}
		next := recs[i-1].PC + isa.InstBytes
		if recs[i-1].IsBranch() {
			next = recs[i-1].Targ
		}
		if r.PC != next || first[r.PC] != staticKey(r) {
			n++
		}
	}
	return n
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
	w, last := at.Walk(), 0
	for range at.Len() {
		last = w.Next()
	}
	if len(at.Static()) != MaxStaticRows || last != MaxStaticRows-1 {
		t.Fatalf("%d static rows, last record on row %d", len(at.Static()), last)
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
	for _, c := range rowLaneCases() {
		f.Add(encodeRecords(c.recs))
	}
	for _, c := range loadLaneCases() {
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

// TestConcurrentWalks walks one trace from several goroutines at once,
// through Batches, a Walker and a LoadReader: each walk decodes the coded
// lanes against its own per-row tables, so every walk reads the records
// Expand gives.
func TestConcurrentWalks(t *testing.T) {
	tr := genTrace(4 * batchRecords)
	want := tr.Expand()
	var loads []Record
	for _, r := range want {
		if r.IsLoad() {
			loads = append(loads, r)
		}
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for base, batch := range tr.Batches() {
				if !reflect.DeepEqual(batch, want[base:base+len(batch)]) {
					t.Errorf("a concurrent walk differs in the batch at record %d", base)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			w := tr.Walk()
			for i, r := range want {
				row := tr.Static()[w.Next()]
				if row.PC != r.PC || (r.IsLoad() || r.IsStore()) && w.Addr() != r.Addr {
					t.Errorf("a concurrent Walker differs at record %d", i)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			r, buf := tr.Mem().Loads(), make([]uint64, 3*100)
			for k := 0; k < len(loads); {
				n := r.Read(buf[:100], buf[100:200], buf[200:])
				for j, l := range loads[k : k+n] {
					if buf[j] != l.PC || buf[100+j] != l.Addr || buf[200+j] != l.Value {
						t.Errorf("a concurrent LoadReader differs at load %d", k+j)
						return
					}
				}
				k += n
			}
		}()
	}
	wg.Wait()
}

// laneCase is a hand-built record sequence and what its trace keeps in the
// exception lanes (rowX, targX entries) and the coded load Addr, load Value
// and store Addr lanes (bytes).
type laneCase struct {
	name                  string
	recs                  []Record
	rowX, targX           int
	addrs, values, stores int
}

// checkLaneCase checks c through every reader (checkCompact) and pins its
// exception and coded lanes, which ResidentBytes counts at their element
// sizes.
func checkLaneCase(t *testing.T, c laneCase) {
	t.Helper()
	checkCompact(t, c.recs)
	tr := FromRecords("", "", c.recs)
	m := tr.Mem()
	if got := (laneCase{name: c.name, recs: c.recs, rowX: len(tr.rowX.at), targX: len(tr.targX.at),
		addrs: len(m.addrs), values: len(m.values), stores: len(m.storeAddrs)}); !reflect.DeepEqual(got, c) {
		t.Fatalf("lanes hold rowX %d, targX %d, addrs %d B, values %d B, stores %d B; want %d, %d, %d, %d, %d",
			got.rowX, got.targX, got.addrs, got.values, got.stores, c.rowX, c.targX, c.addrs, c.values, c.stores)
	}
	bare := *tr
	bare.rowX, bare.mem.addrs, bare.mem.values, bare.mem.storeAddrs = sparse{}, nil, nil, nil
	if d, want := tr.ResidentBytes()-bare.ResidentBytes(), int64(12*c.rowX+c.addrs+c.values+c.stores); d != want {
		t.Fatalf("ResidentBytes counts the row exception and coded lanes as %d bytes, want %d", d, want)
	}
}

// rowLaneCases are record streams whose rows the walk derives from control
// flow, or keeps as row exceptions where it cannot.
func rowLaneCases() []laneCase {
	add := func(pc uint64) Record { return Record{PC: pc, Op: isa.ADD, Rd: 3, Ra: 1, Rb: 2, Value: pc} }
	beq := func(pc, to uint64, taken bool) Record {
		r := Record{PC: pc, Op: isa.BEQ, Ra: 3, Imm: int64(to), Taken: taken, Targ: pc + isa.InstBytes}
		if taken {
			r.Targ = to
		}
		return r
	}
	jalr := func(pc, to uint64) Record {
		return Record{PC: pc, Op: isa.JALR, Rd: 31, Ra: 5, Taken: true, Targ: to, Value: pc + isa.InstBytes}
	}
	halt := func(pc uint64) Record { return Record{PC: pc, Op: isa.HALT} }
	// A straight-line body of 20 ALU records closed by a loop branch, run
	// 30 times: runs of rows past the walker's eight-row stores, across
	// its chunks. In one pass the stream skips from the body's fifth record
	// to its twelfth (a row exception mid-run), and in another the ninth
	// record carries a Targ (a non-branch's Targ exception).
	var runs []Record
	for it := range 30 {
		for k := uint64(0); k < 20; k++ {
			if it == 7 && k >= 5 && k < 12 {
				continue
			}
			r := add(0x1000 + 4*k)
			if it == 11 && k == 9 {
				r.Targ = 0x7777
			}
			runs = append(runs, r)
		}
		runs = append(runs, beq(0x1050, 0x1000, it < 29))
	}
	runs = append(runs, halt(0x1054))
	return []laneCase{
		{name: "two rows at one PC", recs: []Record{
			add(0x1000), beq(0x1004, 0x1000, true),
			{PC: 0x1000, Op: isa.SUB, Rd: 4, Ra: 1, Rb: 2}, // the PC's second row
			beq(0x1004, 0x1000, false), halt(0x1008),
		}, rowX: 1},
		{name: "jump off its Targ", recs: []Record{
			add(0x1000), beq(0x1004, 0x1000, true),
			add(0x2000), // the branch named 0x1000
			add(0x2004),
			add(0x3000), // a non-branch's next PC is 0x2008
			halt(0x3004),
		}, rowX: 2},
		{name: "JALR to a later row", recs: []Record{
			jalr(0x1000, 0x4000), add(0x4000), jalr(0x4004, 0x1004), halt(0x1004),
		}, targX: 2},
		{name: "one record", recs: []Record{halt(0x1000)}},
		{name: "mid-program start", recs: []Record{
			add(0x1010), beq(0x1014, 0x1008, true), add(0x1008), add(0x100c), add(0x1010),
			beq(0x1014, 0x1008, false), halt(0x1018),
		}},
		{name: "runs across chunks", recs: runs, rowX: 1, targX: 1},
	}
}

// TestRowLaneDerivation pins the row derivation on hand-built traces: each
// round-trips through Expand, Batches, a Walker and a LoadReader, and keeps
// as row exceptions exactly the records off the first row at their
// predecessor's next PC.
func TestRowLaneDerivation(t *testing.T) {
	for _, c := range rowLaneCases() {
		t.Run(c.name, func(t *testing.T) { checkLaneCase(t, c) })
	}
}

// loadLaneCases are load and store streams, each a loop body from PC
// 0x3000 run to completion (so no row exceptions), and what their Addrs
// and Values cost in the coded lanes: per load, the uvarint of the
// zigzagged difference from the last Addr and Value on its row; per store,
// from the last store's Addr (0 before the first).
func loadLaneCases() []laneCase {
	loop := func(n int, body func(it int) []Record) []Record {
		var recs []Record
		end := uint64(0)
		for it := range n {
			for k, r := range body(it) {
				r.PC = 0x3000 + isa.InstBytes*uint64(k)
				end = r.PC + isa.InstBytes
				recs = append(recs, r)
			}
			recs = append(recs, Record{PC: end, Op: isa.BNE, Ra: 1, Imm: 0x3000, Taken: it < n-1, Targ: end + isa.InstBytes})
			if it < n-1 {
				recs[len(recs)-1].Targ = 0x3000
			}
		}
		return recs
	}
	load := func(addr, value uint64) Record {
		return Record{Op: isa.LD, Rd: 3, Ra: 1, Addr: addr, Value: value, Size: 8, Class: isa.LoadIntData}
	}
	store := func(addr uint64) Record { return Record{Op: isa.SD, Ra: 1, Rb: 3, Addr: addr, Value: 1, Size: 8} }
	flip := func(it int) uint64 { return uint64(it%2) * math.MaxInt64 }
	return []laneCase{
		// 0x20 and 7 zigzag to one byte each, and every repeat to a 0.
		{name: "repeats", recs: loop(10, func(int) []Record { return []Record{load(0x20, 7), store(0x30)} }),
			addrs: 10, values: 10, stores: 10},
		// 0 first, then ±MaxInt64 each time: the widest steps, 10 bytes.
		{name: "0-MaxInt64 flips", recs: loop(4, func(it int) []Record { return []Record{load(flip(it), flip(it)), store(flip(it))} }),
			addrs: 1 + 3*10, values: 1 + 3*10, stores: 1 + 3*10},
		// Two load rows far apart, each coded against its own last: 0x100
		// (2 B) then +8 twice; 0x9000 (3 B) then 0 twice. Two store rows
		// coded in turn: 0x9000 (3 B), +8, -8, +8, -8, +8.
		{name: "interleaved rows", recs: loop(3, func(it int) []Record {
			i := uint64(it)
			return []Record{load(0x100+8*i, 1+i), load(0x9000, 1000), store(0x9000), store(0x9008)}
		}), addrs: 2 + 3 + 4, values: 1 + 2 + 4, stores: 3 + 5},
	}
}

// TestLoadLaneCoding pins the load Addr, load Value and store Addr lanes'
// coding on hand-built traces: each round-trips through Expand, Batches, a
// Walker and a LoadReader and costs its bytes in the lanes.
func TestLoadLaneCoding(t *testing.T) {
	for _, c := range loadLaneCases() {
		t.Run(c.name, func(t *testing.T) { checkLaneCase(t, c) })
	}
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
		StoreSizes: []uint8{8, 4, 2, 1},
		StoreAt:    []int32{0, 2, 2, 3},
		// Each load on a row of its own: zigzagged Addrs 0x40, 0x50, 0x80
		// and Values 2, 4, 6 against 0; store Addrs against the last
		// store's: 0x10, +0x20, +8, +0x10.
		addrs:      []byte{0x40, 0x50, 0x80, 0x01},
		values:     []byte{2, 4, 6},
		storeAddrs: []byte{0x20, 0x40, 0x10, 0x20},
	}
	tr := FromRecords("", "", recs)
	if m := tr.Mem(); !reflect.DeepEqual(m, want) {
		t.Fatalf("lanes = %+v\nwant    %+v", m, want)
	}
	checkCompact(t, recs)
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
// the Value exception lane crosses the chunk boundaries too, as does the
// row exception lane. Record i's Value is i, so each row steps by 5 and
// every coded Value is one byte: the Value lanes' lengths are their counts
// of Values.
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
			{"vals", len(tr.vals), cap(tr.vals)},
			{"taken", len(tr.taken), cap(tr.taken)},
			{"targX.at", len(tr.targX.at), cap(tr.targX.at)},
			{"targX.v", len(tr.targX.v), cap(tr.targX.v)},
			{"valX.at", len(tr.valX.at), cap(tr.valX.at)},
			{"valX.v", len(tr.valX.v), cap(tr.valX.v)},
			{"rowX.at", len(tr.rowX.at), cap(tr.rowX.at)},
			{"rowX.v", len(tr.rowX.v), cap(tr.rowX.v)},
			{"LoadRows", len(m.LoadRows), cap(m.LoadRows)},
			{"addrs", len(m.addrs), cap(m.addrs)},
			{"values", len(m.values), cap(m.values)},
			{"storeAddrs", len(m.storeAddrs), cap(m.storeAddrs)},
			{"StoreSizes", len(m.StoreSizes), cap(m.StoreSizes)},
			{"StoreAt", len(m.StoreAt), cap(m.StoreAt)},
		} {
			if l.len != l.cap {
				t.Fatalf("n=%d: lane %s has len %d, cap %d", n, l.name, l.len, l.cap)
			}
		}
		if tr.Len() != n || len(tr.taken) != (n+63)/64 || len(m.values)+len(tr.vals)+len(tr.valX.at) != n {
			t.Fatalf("n=%d: lanes hold %d records, %d taken words, %d+%d+%d values",
				n, tr.Len(), len(tr.taken), len(m.values), len(tr.vals), len(tr.valX.at))
		}
		// Records 3, 8, 13, … are the branches; 5, 10, 15, … go back to
		// the first shape's PC, which no branch names: row exceptions.
		if len(tr.valX.at) != (n+1)/len(shapes) || len(tr.rowX.at) != max(n-1, 0)/len(shapes) {
			t.Fatalf("n=%d: %d Value exceptions, want one per branch; %d row exceptions, want one per 5 records",
				n, len(tr.valX.at), len(tr.rowX.at))
		}
		if n > 0 && !reflect.DeepEqual(tr.Expand(), recs) {
			t.Fatalf("n=%d: trace does not expand to its input", n)
		}
	}
}
