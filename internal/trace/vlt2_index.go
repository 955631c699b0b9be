package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"lvp/internal/obs"
)

// Indexed VLT2 access: with an io.ReaderAt the footer index turns a trace
// file into a random-access collection of independently decodable blocks,
// so seeking to any record costs O(log blocks). When the underlying file
// can be memory-mapped the reader works directly on the mapping: a block is
// read in place, and its payload is inflated or copied once, into the
// decoder's padded buffer.

// IndexedReader is the VLT2 decoder: it reads a file through its footer
// index. It satisfies Decoder (batched reads from the current position) and
// adds SeekRecord. Not safe for concurrent use.
type IndexedReader struct {
	ra     io.ReaderAt
	data   []byte       // whole-file view (mmap or caller-provided); nil → ReadAt path
	unmap  func() error // releases data when it is a mapping
	name   string
	target string
	hdrLen uint64
	fOff   uint64 // footer offset
	idx    []indexEnt2
	cum    []uint64 // cum[i] = records before block i; len(idx)+1 entries
	total  uint64

	cur      int // index of the block staged in dec (or len(idx) when drained)
	dec      blockDec
	fetch    blockReader
	blockBuf []byte // ReadAt scratch for one block
	read     uint64
	m        v2Metrics
	err      error // sticky decode error
}

// NewIndexedReader opens a VLT2 file through ra. When ra is an *os.File the
// file is memory-mapped if the platform supports it; Close releases the
// mapping.
func NewIndexedReader(ra io.ReaderAt, size int64) (*IndexedReader, error) {
	ir := &IndexedReader{ra: ra, m: newV2Metrics(nil)}
	if f, ok := ra.(*os.File); ok {
		if data, unmap, ok := mmapFile(f, size); ok {
			ir.data = data
			ir.unmap = unmap
		}
	}
	if err := ir.open(size); err != nil {
		ir.Close()
		return nil, err
	}
	return ir, nil
}

// NewIndexedReaderBytes opens an in-memory VLT2 image without copying it:
// blocks are read in place from data.
func NewIndexedReaderBytes(data []byte) (*IndexedReader, error) {
	ir := &IndexedReader{ra: bytes.NewReader(data), data: data, m: newV2Metrics(nil)}
	if err := ir.open(int64(len(data))); err != nil {
		return nil, err
	}
	return ir, nil
}

// readAt serves n bytes at off from the mapping when present, the ReaderAt
// otherwise. buf is the reusable destination for the ReadAt path.
func (ir *IndexedReader) readAt(buf *[]byte, off uint64, n int) ([]byte, error) {
	if ir.data != nil {
		if off > uint64(len(ir.data)) || n > len(ir.data)-int(off) {
			return nil, fmt.Errorf("%w: read [%d, %d+%d) beyond file size %d", ErrCorrupt, off, off, n, len(ir.data))
		}
		return ir.data[off : off+uint64(n)], nil
	}
	*buf = grow(*buf, n)
	if _, err := ir.ra.ReadAt(*buf, int64(off)); err != nil {
		return nil, err
	}
	return *buf, nil
}

// open parses the header, trailer and footer index, validating the index
// invariants: contiguous non-overlapping entries from the end of the header
// to the start of the footer, plausible per-entry sizes and counts, and a
// record total equal to the entry sum.
func (ir *IndexedReader) open(size int64) error {
	if size < int64(trailerLen2)+5 {
		return fmt.Errorf("%w: file too small (%d bytes)", ErrCorrupt, size)
	}
	// Header: magic, version, name, target.
	hr := bufio.NewReaderSize(io.NewSectionReader(ir.ra, 0, size), 4096)
	var m [5]byte
	if _, err := io.ReadFull(hr, m[:]); err != nil {
		return fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(m[:4]) != magic2 {
		return ErrBadMagic
	}
	if m[4] != version2 {
		return fmt.Errorf("%w: %d", ErrVersion, m[4])
	}
	var err error
	if ir.name, err = readString(hr); err != nil {
		return fmt.Errorf("trace: reading name: %w", err)
	}
	if ir.target, err = readString(hr); err != nil {
		return fmt.Errorf("trace: reading target: %w", err)
	}
	ir.hdrLen = uint64(len(magic2)) + 1 +
		uint64(uvarintLen(uint64(len(ir.name)))+len(ir.name)) +
		uint64(uvarintLen(uint64(len(ir.target)))+len(ir.target))

	// Trailer.
	var tbuf []byte
	tail, err := ir.readAt(&tbuf, uint64(size)-uint64(trailerLen2), trailerLen2)
	if err != nil {
		return fmt.Errorf("trace: vlt2 trailer: %w", err)
	}
	if string(tail[8:]) != trailerMagic2 {
		return fmt.Errorf("%w: bad trailer magic", ErrCorrupt)
	}
	ir.fOff = binary.LittleEndian.Uint64(tail[:8])
	crcEnd := uint64(size) - uint64(trailerLen2) // footer CRC sits just before the trailer
	if ir.fOff < ir.hdrLen || ir.fOff+4 > crcEnd {
		return fmt.Errorf("%w: trailer footer offset %d outside [%d, %d]", ErrCorrupt, ir.fOff, ir.hdrLen, crcEnd-4)
	}

	// Footer: its body spans [fOff, crcEnd-4) with its CRC in the last 4
	// bytes before the trailer. Read body+CRC together, verify, parse.
	var fbuf []byte
	footer, err := ir.readAt(&fbuf, ir.fOff, int(crcEnd-ir.fOff))
	if err != nil {
		return fmt.Errorf("trace: vlt2 footer: %w", err)
	}
	body, crcBytes := footer[:len(footer)-4], footer[len(footer)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(crcBytes) {
		return fmt.Errorf("trace: vlt2 footer: %w", ErrChecksum)
	}
	if len(body) < 1 || body[0] != blockKindFooter {
		return fmt.Errorf("%w: footer does not start with the footer kind byte", ErrCorrupt)
	}
	pos := 1
	next := func(what string) (uint64, error) {
		v, k := binary.Uvarint(body[pos:])
		if k <= 0 {
			return 0, fmt.Errorf("%w: footer %s truncated or overlong", ErrCorrupt, what)
		}
		pos += k
		return v, nil
	}
	nblocks, err := next("block count")
	if err != nil {
		return err
	}
	if nblocks > maxFileBlocks {
		return fmt.Errorf("%w: footer declares %d blocks (cap %d)", ErrCorrupt, nblocks, maxFileBlocks)
	}
	// Entries are at least 3 bytes each: reject a lying count before the
	// index allocation, so a hostile footer cannot over-allocate.
	if nblocks*3 > uint64(len(body)-pos) {
		return fmt.Errorf("%w: footer declares %d blocks but holds %d bytes", ErrCorrupt, nblocks, len(body)-pos)
	}
	ir.idx = make([]indexEnt2, 0, nblocks)
	ir.cum = make([]uint64, 0, nblocks+1)
	wantOff := ir.hdrLen
	var total uint64
	ir.cum = append(ir.cum, 0)
	for i := uint64(0); i < nblocks; i++ {
		off, err := next("entry offset")
		if err != nil {
			return err
		}
		sz, err := next("entry size")
		if err != nil {
			return err
		}
		count, err := next("entry count")
		if err != nil {
			return err
		}
		if off != wantOff {
			return fmt.Errorf("%w: index entry %d offset %d overlaps or skips (want %d)", ErrCorrupt, i, off, wantOff)
		}
		// Compare in subtracted form: off+sz can wrap uint64 on a hostile
		// footer, but off == wantOff <= fOff holds inductively, so the
		// remaining span fOff-off never underflows.
		if sz < hdrMin2 || sz > ir.fOff-off {
			return fmt.Errorf("%w: index entry %d size %d out of range", ErrCorrupt, i, sz)
		}
		if count < 1 || count > MaxBlockRecords {
			return fmt.Errorf("%w: index entry %d count %d out of range", ErrCorrupt, i, count)
		}
		wantOff = off + sz
		total += count
		ir.idx = append(ir.idx, indexEnt2{off: off, size: sz, count: count})
		ir.cum = append(ir.cum, total)
	}
	if wantOff != ir.fOff {
		return fmt.Errorf("%w: index entries end at %d, footer starts at %d", ErrCorrupt, wantOff, ir.fOff)
	}
	declared, err := next("record total")
	if err != nil {
		return err
	}
	if pos != len(body) {
		return fmt.Errorf("%w: %d trailing footer bytes", ErrCorrupt, len(body)-pos)
	}
	if declared != total {
		return fmt.Errorf("%w: footer total %d != entry sum %d", ErrCorrupt, declared, total)
	}
	ir.total = total
	return nil
}

// hdrMin2 is the smallest possible data-block wire size: kind, four 1-byte
// uvarints, codec byte, CRC, and a minimal 5-byte single-record payload.
const hdrMin2 = 1 + 4 + 1 + 4 + minEncRecord2

// SetMetrics routes the reader's trace.v2.* counters into m (nil disables).
func (ir *IndexedReader) SetMetrics(m *obs.Registry) { ir.m = newV2Metrics(m) }

// Name returns the trace's benchmark name from the header.
func (ir *IndexedReader) Name() string { return ir.name }

// Target returns the trace's codegen target from the header.
func (ir *IndexedReader) Target() string { return ir.target }

// Count returns the file's total record count, known up front from the
// footer index.
func (ir *IndexedReader) Count() uint64 { return ir.total }

// Decoded returns the number of records returned so far.
func (ir *IndexedReader) Decoded() uint64 { return ir.read }

// Blocks returns the number of data blocks in the file.
func (ir *IndexedReader) Blocks() int { return len(ir.idx) }

// WireBytes returns the on-wire byte span of the file's data blocks
// (headers plus compressed payloads).
func (ir *IndexedReader) WireBytes() uint64 { return ir.fOff - ir.hdrLen }

// Close releases the file mapping, if any. The reader is unusable after.
func (ir *IndexedReader) Close() error {
	if ir.unmap == nil {
		return nil
	}
	u := ir.unmap
	ir.unmap = nil
	ir.data = nil
	return u()
}

// parseBlockHdr parses a data-block header from the start of b, returning
// the header and the offset of the payload within b.
func parseBlockHdr(b []byte) (blockHdr2, int, error) {
	var h blockHdr2
	if len(b) < 1 || b[0] != blockKindData {
		return h, 0, fmt.Errorf("%w: block does not start with the data kind byte", ErrCorrupt)
	}
	pos := 1
	next := func(what string) (uint64, error) {
		v, k := binary.Uvarint(b[pos:])
		if k <= 0 {
			return 0, fmt.Errorf("%w: block %s truncated or overlong", ErrCorrupt, what)
		}
		pos += k
		return v, nil
	}
	var err error
	if h.count, err = next("count"); err != nil {
		return h, 0, err
	}
	if h.rawLen, err = next("raw length"); err != nil {
		return h, 0, err
	}
	if pos >= len(b) {
		return h, 0, fmt.Errorf("%w: block codec truncated", ErrCorrupt)
	}
	h.codec = BlockCodec(b[pos])
	pos++
	if h.encLen, err = next("encoded length"); err != nil {
		return h, 0, err
	}
	if h.firstPC, err = next("firstPC"); err != nil {
		return h, 0, err
	}
	if h.firstAddr, err = next("firstAddr"); err != nil {
		return h, 0, err
	}
	if pos+4 > len(b) {
		return h, 0, fmt.Errorf("%w: block crc truncated", ErrCorrupt)
	}
	h.crc = binary.LittleEndian.Uint32(b[pos:])
	pos += 4
	if err := h.validate(); err != nil {
		return h, 0, err
	}
	return h, pos, nil
}

// stageBlock fetches block i, verifies it against its index entry, and
// stages its payload in the reader's block decoder.
func (ir *IndexedReader) stageBlock(i int) error {
	e := ir.idx[i]
	b, err := ir.readAt(&ir.blockBuf, e.off, int(e.size))
	if err != nil {
		return fmt.Errorf("trace: vlt2 block %d: %w", i, err)
	}
	h, payloadOff, err := parseBlockHdr(b)
	if err != nil {
		return fmt.Errorf("trace: vlt2 block %d: %w", i, err)
	}
	if h.count != e.count {
		return fmt.Errorf("%w: block %d header count %d != index count %d", ErrCorrupt, i, h.count, e.count)
	}
	if uint64(payloadOff)+h.encLen != e.size {
		return fmt.Errorf("%w: block %d wire size %d != index size %d", ErrCorrupt, i, uint64(payloadOff)+h.encLen, e.size)
	}
	raw, err := ir.fetch.decompress(&h, b[payloadOff:uint64(payloadOff)+h.encLen])
	if err != nil {
		return fmt.Errorf("trace: vlt2 block %d: %w", i, err)
	}
	ir.dec.reset(raw, &h)
	ir.m.blocks.Inc()
	ir.m.rawBytes.Add(int64(h.rawLen))
	ir.m.encBytes.Add(int64(h.encLen))
	return nil
}

// SeekRecord positions the reader so the next record returned is record n
// (0-based). n == Count() positions at EOF. Seeking lands on the containing
// block in O(log blocks) and discards only that block's preceding records.
func (ir *IndexedReader) SeekRecord(n uint64) error {
	if n > ir.total {
		return fmt.Errorf("trace: seek to record %d beyond count %d", n, ir.total)
	}
	ir.err = nil
	if n == ir.total {
		ir.cur = len(ir.idx)
		ir.dec = blockDec{}
		return nil
	}
	// Find the block b with cum[b] <= n < cum[b+1].
	b := sort.Search(len(ir.idx), func(i int) bool { return ir.cum[i+1] > n })
	if err := ir.stageBlock(b); err != nil {
		ir.err = err
		return err
	}
	ir.cur = b
	var scratch [64]Record
	for skip := n - ir.cum[b]; skip > 0; {
		k, err := ir.dec.decodeInto(scratch[:min(skip, uint64(len(scratch)))])
		if err != nil {
			ir.err = fmt.Errorf("trace: vlt2 block %d: %w", b, err)
			return ir.err
		}
		skip -= uint64(k)
	}
	return nil
}

// NextBatch decodes up to len(buf) records from the current position.
func (ir *IndexedReader) NextBatch(buf []Record) (int, error) {
	if ir.err != nil {
		return 0, ir.err
	}
	n := 0
	for n < len(buf) {
		if ir.dec.remaining() == 0 {
			// The staged block is spent; ir.cur still names it until the
			// next one is staged.
			if ir.dec.p != nil {
				ir.cur++
			}
			if ir.cur >= len(ir.idx) {
				break
			}
			if err := ir.stageBlock(ir.cur); err != nil {
				ir.err = err
				if n > 0 {
					return n, nil
				}
				return 0, err
			}
		}
		k, err := ir.dec.decodeInto(buf[n:])
		n += k
		ir.read += uint64(k)
		ir.m.records.Add(int64(k))
		if err != nil {
			ir.err = fmt.Errorf("trace: vlt2 block %d: %w", ir.cur, err)
			if n > 0 {
				return n, nil
			}
			return 0, ir.err
		}
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}
