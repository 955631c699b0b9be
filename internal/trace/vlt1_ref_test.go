package trace

import (
	"bytes"
	"encoding/binary"
)

// encodeVLT1 is the VLT1 reference encoder the tests use to feed the
// read-only VLT1 Reader: the retired writer's byte layout (see codec.go),
// which TestWriterCountByteIdentical pins against the checked-in fixtures.
// padded selects the ten-byte count field that streaming writers reserved
// and backpatched; otherwise the count is a minimal uvarint.
func encodeVLT1(t *Trace, padded bool) []byte {
	b := []byte(magic)
	b = binary.AppendUvarint(b, uint64(len(t.Name)))
	b = append(b, t.Name...)
	b = binary.AppendUvarint(b, uint64(len(t.Target)))
	b = append(b, t.Target...)
	n := uint64(t.Len())
	if padded {
		for range binary.MaxVarintLen64 - 1 {
			b = append(b, byte(n)|0x80)
			n >>= 7
		}
		b = append(b, byte(n))
	} else {
		b = binary.AppendUvarint(b, n)
	}
	var prevPC uint64
	recs := t.Expand()
	for i := range recs {
		r := &recs[i]
		var flags byte
		if r.IsLoad() || r.IsStore() {
			flags |= flagMem
		} else if r.Value != 0 {
			flags |= flagVal
		}
		if r.Taken {
			flags |= flagTaken
		}
		if r.IsBranch() {
			flags |= flagTarg
		}
		b = append(b, flags, byte(r.Op), byte(r.Rd), byte(r.Ra), byte(r.Rb), byte(r.Class))
		b = binary.AppendVarint(b, int64(r.PC-prevPC))
		prevPC = r.PC
		b = binary.AppendVarint(b, r.Imm)
		if flags&flagMem != 0 {
			b = append(b, r.Size)
			b = binary.AppendUvarint(b, r.Addr)
			b = binary.AppendUvarint(b, r.Value)
		}
		if flags&flagVal != 0 {
			b = binary.AppendUvarint(b, r.Value)
		}
		if flags&flagTarg != 0 {
			b = binary.AppendUvarint(b, r.Targ)
		}
	}
	return b
}

// encodeTrace encodes t as VLT1 with a minimal count field.
func encodeTrace(t *Trace) []byte { return encodeVLT1(t, false) }

// encodePadded encodes t as VLT1 with the padded, backpatched count field.
func encodePadded(t *Trace) []byte { return encodeVLT1(t, true) }

// EncodeVLT1 exposes the reference encoder to the package's external tests.
var EncodeVLT1 = encodeTrace

// readVLT1 decodes a whole VLT1 trace through the streaming Reader.
func readVLT1(data []byte) (*Trace, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return ReadAll(r)
}
