package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Decoder is the format-independent read seam: both the VLT1 Reader and the
// VLT2 IndexedReader satisfy it, so every consumer of trace files works on
// either format. Count is the record count from the VLT1 header or the VLT2
// footer index, known before the first record is read.
type Decoder interface {
	Name() string
	Target() string
	Count() uint64
	Decoded() uint64
	BatchSource
}

// OpenFile is the one trace opener. It detects f's format on its magic
// bytes and returns an IndexedReader for VLT2 (O(log blocks) seeking,
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
	if d.Count() > MaxRecords {
		return nil, fmt.Errorf("trace: %d records, more than an in-memory trace holds (%d)", d.Count(), MaxRecords)
	}
	return Collect(d.Name(), d.Target(), d)
}
