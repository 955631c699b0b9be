package trace

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// streamRSSRecords is sized so the in-memory equivalent would dominate the
// bound: 10M records at ~72 bytes each is ~720 MB materialized, while the
// streaming pipeline below must stay under streamRSSBoundMB.
const (
	streamRSSRecords = 10_000_000
	streamRSSBoundMB = 256
)

// vmHWMKB reads the process peak resident set (VmHWM) from
// /proc/self/status, in kilobytes.
func vmHWMKB(t *testing.T) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("cannot read /proc/self/status: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			break
		}
		return kb
	}
	t.Skip("no VmHWM line in /proc/self/status")
	return 0
}

// TestStreamRSS is the bounded-memory gate of the streaming codec: a
// synthetic 10M-record trace is encoded by Writer2 into a file and decoded
// by the IndexedReader through an io.SectionReader, and the process peak
// RSS must stay far below what materializing the trace would cost. A
// regression that buffers the stream anywhere (writer, reader, or an
// accumulator that grows per record) trips the bound. The SectionReader
// takes the reader's ReadAt path: an *os.File would be memory-mapped, and
// the mapped file's pages would count in VmHWM.
func TestStreamRSS(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-record stream; skipped in -short")
	}
	if runtime.GOOS != "linux" {
		t.Skip("VmHWM is read from /proc; linux only")
	}

	f, err := os.Create(filepath.Join(t.TempDir(), "rss.vlt2"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seed := genTrace(64).Expand()
	sw, err := NewWriter2Opts(f, "rss", "ppc", Writer2Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < streamRSSRecords; i++ {
		rec := seed[i%len(seed)]
		rec.PC = uint64(0x1000 + 4*i)
		if err := sw.WriteRecord(&rec); err != nil {
			sw.Close()
			t.Fatalf("writer: %v", err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("writer: %v", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		t.Fatal(err)
	}

	ir, err := NewIndexedReader(io.NewSectionReader(f, 0, size), size)
	if err != nil {
		t.Fatalf("NewIndexedReader: %v", err)
	}
	z := NewSummarizer(ir.Name(), ir.Target())
	buf := make([]Record, 1024)
	n := 0
	for {
		k, err := ir.NextBatch(buf)
		for i := range k {
			z.Add(&buf[i])
		}
		n += k
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("NextBatch (after record %d): %v", n, err)
		}
	}
	if n != streamRSSRecords {
		t.Fatalf("decoded %d records, want %d", n, streamRSSRecords)
	}
	if got := z.Summary().Instructions; got != streamRSSRecords {
		t.Fatalf("summarizer saw %d instructions, want %d", got, streamRSSRecords)
	}

	hwmKB := vmHWMKB(t)
	if hwmKB > streamRSSBoundMB*1024 {
		t.Fatalf("peak RSS %d MB while streaming %d records; bound is %d MB — "+
			"the pipeline is buffering somewhere",
			hwmKB/1024, streamRSSRecords, streamRSSBoundMB)
	}
	t.Logf("streamed %d records (%d MB file), peak RSS %d MB (bound %d MB)",
		n, size>>20, hwmKB/1024, streamRSSBoundMB)
}
