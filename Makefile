# Development targets for the lvp repository.
#
# `make check` is the full local gate: build, static checks (vet + gofmt),
# tests, and the race-detector pass. `make race-full` includes the golden
# serial-vs-parallel render, which is expensive under the detector.

GO ?= go

.PHONY: all build check test vet race race-full fuzz bench bench-obs bench-stream bench-json bench-json-smoke check-stream check-perf check-annotate check-zoo check-obs serve check-serve check-dist check-vlt2 verify clean

all: build

build:
	$(GO) build ./...
	$(GO) build -o bin/lvpd ./cmd/lvpd

test:
	$(GO) test ./...

# Static checks: go vet plus a gofmt cleanliness gate (fails listing any
# file that gofmt would rewrite).
vet:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

check: build vet test race check-perf check-annotate check-zoo check-obs check-dist check-vlt2

# Race-detector pass over every package. -short skips the golden
# double-render (TestGoldenSerialVsParallel), which the detector slows by an
# order of magnitude; all concurrency unit tests (internal/par, internal/obs,
# the suite cache paths, the cheap golden repeat) still run under the
# detector.
race:
	$(GO) test -race -short ./...

# Full race pass including the golden serial-vs-parallel gate (narrowed to
# a representative experiment subset under the detector — see
# internal/exp/golden_test.go). The timeout margin covers small machines.
race-full:
	$(GO) test -race -timeout 30m ./...

# Short fuzz sessions over the trace codecs — the whole-trace round-trip
# property, the streaming Reader/Writer round-trip property, and the VLT2
# block-codec round-trip (both decode paths, every codec) — and over the
# whole file pipeline: raw bytes → trace.Open → lvp.Pipe → both timing
# models (never a panic; decode errors come back from Simulate).
fuzz:
	$(GO) test -fuzz='FuzzRoundTrip$$' -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz='FuzzStreamRoundTrip$$' -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz='FuzzVLT2RoundTrip$$' -fuzztime=30s ./internal/trace/
	$(GO) test -run XXX -fuzz='FuzzSimulate$$' -fuzztime=30s ./internal/exp/

# Experiment-engine benchmarks: compare ExpAllSerial vs ExpAllParallel for
# the worker-pool speedup.
bench:
	$(GO) test -run xxx -bench 'BenchmarkExpAll' -benchtime 2x .

# Observability overhead benchmarks: AnnotateSimple vs the nil-tracer and
# disabled-channel variants must agree within noise (<5%); see
# OBSERVABILITY.md.
bench-obs:
	$(GO) test -run xxx -bench 'BenchmarkAnnotate' -benchtime 2s -count 3 .

# Streaming-layer benchmarks: record-at-a-time decode/encode vs the
# whole-trace codec, and batched vs per-record decode (StreamDecodeBatch vs
# StreamDecode). The fused gen→annotate→sim cell is lvpbench's
# pipeline.fused.batch.
bench-stream:
	$(GO) test -run xxx -bench 'Stream|MemDecode|MemEncode' -benchtime 1s ./internal/trace/

# Benchmark-trajectory grid (see PERFORMANCE.md): the full run refreshes the
# checked-in BENCH_PR10.json baseline; the smoke run is the CI sizing that
# uploads an informational artifact and logs >20% ratio drift against the
# checked-in snapshot without gating (ratios divide two cells measured on
# the same machine, so they survive host-speed differences that raw ns/rec
# numbers don't).
bench-json:
	$(GO) run ./cmd/lvpbench -out BENCH_PR10.json

bench-json-smoke:
	$(GO) run ./cmd/lvpbench -smoke -out bench-smoke.json -compare BENCH_PR10.json

# Streaming memory/identity gate, run standalone (uncached): the
# allocation-regression tests (0 allocs/record on the Reader/Writer/LVP hot
# paths), the 10M-record peak-RSS bound, the per-workload differential
# between vm.Source → lvp.Pipe → Simulate and the suite's in-memory cells,
# and the slab contract of both timing models (stats independent of how
# the trace is cut into slabs; source errors returned, never a panic). All
# of these also run as part of plain `make test` / `make check`.
check-stream:
	$(GO) test -count=1 -run 'AllocFree|TestStreamRSS|TestStreamDifferential|TestAnnotatorMatchesAnnotate|TestReaderMatchesRead|TestSimulateSlabContract|TestSimulateReturnsSourceError' ./internal/trace/ ./internal/lvp/ ./internal/exp/

# Hot-path identity and allocation gates, run standalone (uncached): the
# randomized CVU differential against the linear-scan reference (states,
# stats, and eviction victims must be decision-identical), the batched
# decode/annotate differentials, the Pipe's records-before-error rule, the
# in-memory span source, and the 0-allocs/record gates on the steady-state
# CVU and batch paths.
check-perf:
	$(GO) test -count=1 -run 'TestCVUDifferential|TestCVUInvalidateAddrBoundaries|TestCVUInsertRefresh|TestCVUOpsAllocFree|NextBatch|TestPipeDeliversRecordsBeforeError|TestSlabsOneSpan|TestRecordBatch' ./internal/lvp/ ./internal/trace/ ./internal/vm/

# Annotation-slab gate, run standalone (uncached), then again under the race
# detector (-short keeps three workloads in the suite differential): the
# memory-op slab walk against Annotator.RecordBatch (states and Stats on the
# edge cases, and through the suite on every workload, both targets and
# every unit configuration and sweep point), one unit run per hardware
# configuration and its hardware-identity label, the allocation bounds of
# the slab walk and of a suite unit run, the CVU differential widened to
# 8192 LVPT indices, to forced address-bucket collisions and to the key
# shapes the full-key lookup depends on (strided addresses past capacity
# under one index; one address under several indices), and vm.Run's
# chunked collector against RunSink with its allocation bound.
ANNOTATE_TESTS = 'Slab|ExtractLoads|TestCVUDifferential|FuzzCVUDifferential|TestCVUBucketCollisions|TestOneUnitRun|TestSimCacheByHardware|TestSharedRunLabel|TestUnitRunAllocs|TestRunMatchesRunSink|TestCollectLengths|TestRunAllocBound'

check-annotate:
	$(GO) test -count=1 -run $(ANNOTATE_TESTS) ./internal/lvp/ ./internal/exp/ ./internal/vm/
	$(GO) test -race -count=1 -short -run $(ANNOTATE_TESTS) ./internal/lvp/ ./internal/exp/ ./internal/vm/

# Predictor-zoo gate, run standalone (uncached): the randomized two-level
# differential against the map-based reference (predictions, confidence
# state, and replacement victims must be decision-identical), the
# tagged/set-associative LVPT property tests (alias freedom, LRU victim
# order, 0-allocs gates), the stride edge cases, the checked-in zoosweep
# golden table, serial-vs-parallel byte identity, the served-vs-direct
# zoo-cell identity, and the one-walk load-stream statistics against the
# walks they replaced on every workload (the fused path-LVPT pass vs one
# walk per table, the slab predictor loop vs the record walk, the cached
# suite locality vs a direct measurement) — the concurrent sweep tests
# under the race detector.
check-zoo:
	$(GO) test -count=1 -run 'TwoLevel|Assoc|Tagged|Stride|Family|MeasureZoo|TestZoo|Walk' ./internal/lvp/ ./internal/exp/
	$(GO) test -race -count=1 -run 'TestZoo' ./internal/exp/ ./internal/serve/

# Serving-telemetry gate, run standalone (uncached): the disabled-path
# overhead contract (0 allocs/op for histogram Observe and scope-less span
# calls, tracer two-compares-when-off), Prometheus exposition conformance
# (parse-back, cumulative buckets, label escaping), the span-channel golden
# schema, the timeline endpoint e2e, and the tracing-on byte-identity gate —
# then the concurrency tests again under the race detector.
check-obs:
	$(GO) test -count=1 -run 'Histogram|Span|Prometheus|Timeline|AccessLog|RequestID|TracingOn|Publish|BucketBounds|BucketIndex|FlightRecorder' ./internal/obs/ ./internal/serve/
	$(GO) test -race -count=1 -run 'TestHistogramConcurrent|TestSpanConcurrent|TestConcurrentPublish|TestTracingOnIdentity' ./internal/obs/ ./internal/serve/

# VLT2 block-codec gate, run standalone (uncached): the VLT1/VLT2
# cross-format differential (records, annotation bytes, and all three
# machine models' stats byte-identical regardless of format), the
# hostile-input table (truncated blocks, corrupted checksums, lying header
# lengths, overlapping index entries — clean errors, never panics), the
# checked-in fuzz corpus seeds, the random-seek and parallel-width property
# tests, and the 0-allocs/record gates on the VLT2 batch paths — then the
# parallel-decode identity property again under the race detector.
check-vlt2:
	$(GO) test -count=1 -run 'TestVLT2|FuzzVLT2' ./internal/trace/
	$(GO) test -count=1 -run 'TestFormatDifferential' ./internal/exp/
	$(GO) test -race -count=1 -short -run 'TestVLT2ParallelWidthsProperty|TestVLT2SeekProperty' ./internal/trace/

# Run the experiment daemon locally (see SERVING.md for the API).
serve:
	$(GO) run ./cmd/lvpd -addr :8347

# Serving-layer gate: the lvpd job manager, HTTP API, and client — including
# the byte-identity, drain, backpressure, and cancellation tests — under the
# race detector.
check-serve:
	$(GO) test -race -count=1 ./internal/serve/ ./client/

# Distributed-mode gate, run standalone (uncached) under the race detector:
# a coordinator fronting two in-process workers must stream NDJSON
# byte-identical to a single-node daemon — including with a worker killed
# mid-job (failover + goroutine-leak check) — plus the content-addressed
# store (LRU, disk persistence, restart-hit acceptance), the /v1/cells
# worker endpoint, readiness-body placement inputs, per-tenant admission,
# and the jittered-backoff distribution bounds in the client.
check-dist:
	$(GO) test -race -count=1 ./internal/dist/
	$(GO) test -race -count=1 -run 'TestExecCell|TestReadyz|TestTenant|TestStore|TestCellValidate|TestJitter|TestReadinessDecodes' ./internal/serve/ ./client/

verify: check

clean:
	$(GO) clean ./...
	rm -rf bin
