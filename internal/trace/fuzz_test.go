package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"lvp/internal/isa"
)

// fuzzSeedTrace is a small hand-built trace exercising every record shape
// the codec distinguishes: loads/stores (mem fields), branches (target),
// plain ops with and without result values, and PC deltas in both
// directions.
func fuzzSeedTrace() *Trace {
	return FromRecords("seed", "ppc", []Record{
		{PC: 0x1000, Op: isa.ADDI, Rd: 3, Ra: 0, Imm: 42, Value: 42},
		{PC: 0x1004, Op: isa.LD, Rd: 4, Ra: 3, Imm: 8, Addr: 0x2008, Value: 0xdeadbeef, Size: 8, Class: isa.LoadIntData},
		{PC: 0x1008, Op: isa.SD, Rd: 0, Ra: 3, Rb: 4, Imm: 16, Addr: 0x2010, Value: 0xdeadbeef, Size: 8},
		{PC: 0x100c, Op: isa.BEQ, Ra: 4, Imm: -12, Taken: true, Targ: 0x1000},
		{PC: 0x1000, Op: isa.ADD, Rd: 5, Ra: 3, Rb: 4, Value: 0},
	})
}

// FuzzRoundTrip feeds arbitrary bytes to the VLT1 decoder. The invariants:
//
//  1. decoding never panics — malformed inputs must return an error;
//  2. any trace the decoder accepts is canonical: decode(encode(decode(x)))
//     == decode(x), record for record, through the reference encoder.
//
// The seed corpus covers a valid encoding of every record shape plus the
// malformed prefixes the decoder's error paths care about.
func FuzzRoundTrip(f *testing.F) {
	valid := encodeTrace(fuzzSeedTrace())
	f.Add(valid)
	f.Add(encodeTrace(&Trace{Name: "empty", Target: "axp"}))
	f.Add([]byte{})                                                                           // no magic
	f.Add([]byte("VLT0"))                                                                     // wrong magic
	f.Add([]byte("VLT1"))                                                                     // magic only
	f.Add(valid[:len(valid)-3])                                                               // truncated mid-record
	f.Add(append([]byte("VLT1"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)) // huge name length
	f.Add(append(bytes.Clone(valid), 0xAA))                                                   // trailing garbage (ignored)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := readVLT1(data)
		if err != nil {
			return // malformed input rejected; that is the contract
		}
		// Accepted input: it must re-encode and decode back to the exact
		// same records.
		tr2, err := readVLT1(encodeTrace(tr))
		if err != nil {
			t.Fatalf("re-decode of encoded trace failed: %v", err)
		}
		if tr.Name != tr2.Name || tr.Target != tr2.Target {
			t.Fatalf("header drift: %q/%q -> %q/%q", tr.Name, tr.Target, tr2.Name, tr2.Target)
		}
		if tr.Len() != tr2.Len() {
			t.Fatalf("record count drift: %d -> %d", tr.Len(), tr2.Len())
		}
		want, got := tr.Expand(), tr2.Expand()
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("record %d drift:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	})
}

// TestRoundTripSeed pins decode(encode(t)) == t for the seed trace in a
// plain test, so the property is checked on every `go test` run, not only
// under -fuzz.
func TestRoundTripSeed(t *testing.T) {
	want := fuzzSeedTrace()
	got, err := readVLT1(encodeTrace(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || got.Target != want.Target {
		t.Fatalf("header: got %q/%q", got.Name, got.Target)
	}
	if !reflect.DeepEqual(got.Expand(), want.Expand()) {
		t.Fatalf("records differ:\n got %+v\nwant %+v", got.Expand(), want.Expand())
	}
}

// TestReadRejectsMalformed pins the decoder's strictness: inconsistent
// flag/opcode combinations and resource-exhaustion headers error cleanly.
func TestReadRejectsMalformed(t *testing.T) {
	valid := encodeTrace(fuzzSeedTrace())
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"unknown flag bits", func(b []byte) []byte {
			// First record's flag byte follows magic + "seed" + "ppc"
			// (uvarint len + bytes each) + count uvarint.
			b[4+5+4+1] |= 0x80
			return b
		}},
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
		{"huge record count", func([]byte) []byte {
			var buf bytes.Buffer
			buf.WriteString("VLT1")
			buf.Write([]byte{1, 'x'}) // name "x"
			buf.Write([]byte{1, 'y'}) // target "y"
			// count = 2^33: over the plausibility bound.
			buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
			return buf.Bytes()
		}},
		{"mem flag on non-mem op", func([]byte) []byte {
			tr := FromRecords("x", "y", []Record{{PC: 4, Op: isa.ADD}})
			b := encodeTrace(tr)
			b[4+2+2+1] |= flagMem // flip the ADD record's flag byte
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(bytes.Clone(valid))
			if _, err := readVLT1(data); err == nil {
				t.Fatalf("decoder accepted malformed input (%s)", tc.name)
			}
		})
	}
}

// TestVLT1RejectsOutOfRangeFields pins that the VLT1 Reader rejects a
// record whose opcode, register or load-class byte is out of range, naming
// the record, instead of clamping the byte to some valid value (as the VLT2
// decoder does).
func TestVLT1RejectsOutOfRangeFields(t *testing.T) {
	good := Record{PC: 4, Op: isa.ADD, Rd: 1, Ra: 2, Rb: 3, Value: 5}
	next := good
	next.PC = 8
	tr := FromRecords("x", "y", []Record{good, next})
	// Record 1's six header bytes (flags, op, rd, ra, rb, class) start where
	// a one-record encoding ends: both counts are one-byte uvarints.
	rec1 := len(encodeTrace(FromRecords("x", "y", []Record{good})))
	for _, tc := range []struct {
		name  string
		field int // header byte index within the record
		val   byte
	}{
		{"opcode", 1, 0xFA},
		{"opcode just past the last", 1, byte(isa.NumOps)},
		{"rd", 2, 200},
		{"ra", 3, isa.NumRegs},
		{"rb", 4, 0xFF},
		{"load class", 5, 0xEE},
		{"load class just past the last", 5, byte(isa.NumLoadClasses)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := encodeTrace(tr)
			data[rec1+tc.field] = tc.val
			got, err := readVLT1(data)
			if err == nil {
				t.Fatalf("decoder accepted byte %#x as the %s: record 1 = %+v", tc.val, tc.name, got.Expand()[1])
			}
			if !strings.Contains(err.Error(), "record 1") {
				t.Fatalf("error %q does not name record 1", err)
			}
		})
	}
}
