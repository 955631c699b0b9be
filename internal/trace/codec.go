package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format ("VLT1"):
//
//	magic   [4]byte  "VLT1"
//	name    uvarint-len + bytes
//	target  uvarint-len + bytes
//	count   uvarint  (number of records)
//	records ...      (delta/varint encoded, see below)
//
// Each record is encoded as a flag byte followed by varints. PCs are encoded
// as signed deltas from the previous record's PC (almost always +4), which
// keeps typical records to a few bytes.
//
// The count field is normally a minimal uvarint; streaming writers that did
// not know the count up front reserved a padded ten-byte uvarint instead and
// backpatched it. Both decode identically.
//
// VLT1 is read-only: the Reader in stream.go decodes it (OpenFile detects it
// on its magic), and every trace this package writes is VLT2.

const magic = "VLT1"

const (
	flagMem   = 1 << 0 // has Addr/Value/Size
	flagTaken = 1 << 1
	flagTarg  = 1 << 2 // has branch target
	flagVal   = 1 << 3 // non-memory record with a (nonzero) result value
)

var (
	// ErrBadMagic reports that the input is not a VLT1 trace.
	ErrBadMagic = errors.New("trace: bad magic (not a VLT1 trace file)")
	// ErrStringTooLong reports a header whose name or target declares a
	// length beyond MaxHeaderString. The cap bounds what a corrupt or
	// hostile header can make the decoder allocate.
	ErrStringTooLong = errors.New("trace: header string length exceeds cap")
)

// MaxHeaderString caps the declared length of the header's name and target
// strings.
const MaxHeaderString = 1 << 12

func writeString(bw *bufio.Writer, s string) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(s)))
	bw.Write(buf[:n])
	bw.WriteString(s)
}

func readString(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	// Reject the length before allocating anything: the header length is
	// attacker-controlled on corrupt input.
	if n > MaxHeaderString {
		return "", fmt.Errorf("%w (%d > %d)", ErrStringTooLong, n, MaxHeaderString)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}
