package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Decoder is the format-independent streaming read seam: both the VLT1
// Reader and the VLT2 readers satisfy it, so every consumer of trace files
// works on either format. Count is the header/index record count when the
// format carries one up front (VLT1 always, indexed VLT2 always) and 0 when
// it is not yet known (sequential VLT2 before its footer).
type Decoder interface {
	Name() string
	Target() string
	Count() uint64
	Decoded() uint64
	BatchSource
}

// Open auto-detects the stream's format on its magic bytes and returns the
// matching sequential Decoder. Any io.Reader works — pipes included; use
// OpenFile to get seeking on VLT2 files.
func Open(r io.Reader) (Decoder, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	m, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	switch string(m) {
	case magic:
		return NewReader(br)
	case magic2:
		return NewReader2(br)
	}
	return nil, ErrBadMagic
}

// OpenFile auto-detects f's format and returns the strongest Decoder the
// format supports: an IndexedReader for VLT2 (O(log blocks) seeking,
// zero-copy block access) or a streaming Reader for VLT1. The file must stay
// open while the Decoder is in use; if the Decoder implements io.Closer (the
// indexed reader does, to release its mapping), close it before closing f.
func OpenFile(f *os.File) (Decoder, error) {
	var m [4]byte
	if _, err := f.ReadAt(m[:], 0); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	switch string(m[:]) {
	case magic:
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		return NewReader(bufio.NewReaderSize(f, 1<<16))
	case magic2:
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		return NewIndexedReader(f, st.Size())
	}
	return nil, ErrBadMagic
}

// ReadAll drains d into an in-memory Trace.
func ReadAll(d Decoder) (*Trace, error) {
	t := &Trace{Name: d.Name(), Target: d.Target()}
	const allocChunk = 1 << 16
	t.Records = make([]Record, 0, min(d.Count(), allocChunk))
	buf := make([]Record, 1024)
	for {
		n, err := d.NextBatch(buf)
		t.Records = append(t.Records, buf[:n]...)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
