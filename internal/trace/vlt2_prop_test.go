package trace

import (
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// propEncodings is the encoding matrix the seek property test runs over:
// both payload codecs, block sizes that do and do not divide the record
// count.
var propEncodings = []struct {
	name string
	opts Writer2Options
}{
	{"varint", Writer2Options{BlockRecords: 128}},
	{"varint-odd", Writer2Options{BlockRecords: 61}},
	{"flate", Writer2Options{Codec: CodecFlate, BlockRecords: 128}},
}

// TestVLT2SeekProperty drives random SeekRecord positions and checks that
// what follows each seek is exactly the sequential suffix starting there:
// O(1) seek must be observationally equivalent to decode-and-discard.
func TestVLT2SeekProperty(t *testing.T) {
	want := genRecords(5000, 23)
	tr := FromRecords("seek", "ppc", want)
	for _, e := range propEncodings {
		t.Run(e.name, func(t *testing.T) {
			enc := encodeVLT2(tr, e.opts)
			ir, err := NewIndexedReaderBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(enc))))
			buf := make([]Record, 300)
			for trial := 0; trial < 40; trial++ {
				n := uint64(rng.Intn(len(want) + 1))
				if err := ir.SeekRecord(n); err != nil {
					t.Fatalf("seek %d: %v", n, err)
				}
				// Read a bounded window, not the whole suffix, so the
				// test stays O(trials × window) instead of O(trials × n).
				window := rng.Intn(700) + 1
				var got []Record
				for len(got) < window {
					k, err := ir.NextBatch(buf[:min(window-len(got), len(buf))])
					got = append(got, buf[:k]...)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatalf("after seek %d: %v", n, err)
					}
				}
				wantWin := want[n:min(int(n)+window, len(want))]
				if len(got) != len(wantWin) || (len(got) > 0 && !reflect.DeepEqual(got, wantWin)) {
					t.Fatalf("seek %d window %d: records differ", n, window)
				}
			}
			// Seeking beyond the end must fail cleanly; seeking to the
			// exact end must yield io.EOF.
			if err := ir.SeekRecord(uint64(len(want)) + 1); err == nil {
				t.Fatal("seek beyond count succeeded")
			}
			if err := ir.SeekRecord(uint64(len(want))); err != nil {
				t.Fatal(err)
			}
			if _, err := ir.NextBatch(buf); err != io.EOF {
				t.Fatalf("read at end: want io.EOF, got %v", err)
			}
		})
	}
}

// TestVLT2NextBatchAllocs pins the VLT2 decoder's batch path at steady
// state, counted per 4096-record block of 256-record batches: raw blocks
// decode with zero allocations (the reused block buffers growing to a new
// largest block stay well below one per block); flate blocks pay
// compress/flate's per-block Huffman tables (about 19 allocations) and nothing per record, bounded here at 32 per block.
func TestVLT2NextBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const batch, maxFlatePerBlock = 256, 32
	tr := FromRecords("alloc", "ppc", genRecords(200_000, 41))
	for _, c := range batchDecodeCases(tr) {
		t.Run(c.name, func(t *testing.T) {
			d, err := NewIndexedReaderBytes(c.enc)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]Record, batch)
			// One run decodes one whole block in batches: 40 blocks after
			// the warm-up block, short of the trace's end.
			perBlock := testing.AllocsPerRun(40, func() {
				for range DefaultBlockRecords / batch {
					if _, err := d.NextBatch(buf); err != nil {
						t.Fatal(err)
					}
				}
			})
			t.Logf("%v allocs/block", perBlock)
			switch {
			case c.codec == CodecRaw && perBlock != 0:
				t.Fatalf("raw blocks: %v allocs/block, want 0", perBlock)
			case perBlock > maxFlatePerBlock:
				t.Fatalf("flate blocks: %v allocs/block, want at most %d", perBlock, maxFlatePerBlock)
			}
		})
	}
}

// TestVLT2WriterAllocFree pins the encode loop on raw blocks: after warmup,
// WriteRecord must not allocate except when a block flushes (the flush
// reuses buffers too, so even flush boundaries stay at zero amortized).
func TestVLT2WriterAllocFree(t *testing.T) {
	writer2AllocFree(t, Writer2Options{})
}

// writer2AllocFree measures Writer2.WriteRecord's allocations per record
// under opts, after two blocks of warm-up bring every reused buffer (and
// the flate state) to size.
func writer2AllocFree(t *testing.T, opts Writer2Options) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	recs := genRecords(4096, 43)
	w, err := NewWriter2Opts(io.Discard, "alloc", "ppc", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := range 2 * DefaultBlockRecords {
		if err := w.WriteRecord(&recs[i%len(recs)]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(20_000, func() {
		if err := w.WriteRecord(&recs[i%len(recs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("Writer2.WriteRecord (%v) allocates %v allocs/record, want 0", opts.Codec, avg)
	}
}
