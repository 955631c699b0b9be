# Development targets for the lvp repository.
#
# `make check` is the full local gate: build, static checks (vet + gofmt),
# tests, and the race-detector pass. `make race-full` includes the golden
# serial-vs-parallel render, which is expensive under the detector.

GO ?= go

.PHONY: all build check test vet race race-full fuzz bench bench-obs bench-stream bench-json check-stream check-test-lists check-annotate check-zoo check-obs serve check-serve check-dist check-vlt2 loc verify clean

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

check: build vet check-test-lists test race check-annotate check-zoo check-obs check-dist check-vlt2

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

# Short fuzz sessions over the trace codecs — the read-only VLT1 Reader's
# whole-trace and one-record-per-batch round-trip properties (re-encoded by
# the tests' reference encoder), and the VLT2 block-codec round-trip (the
# indexed reader, both codecs), the VLT2 record decoder on arbitrary block
# payloads behind a valid CRC, the compact in-memory trace's lossless
# round trip (FromRecords then every reader) — over the whole file pipeline:
# raw bytes → trace.OpenFile → trace.ReadAll → lvp.Annotate(Simple) → both
# timing models, with the annotation and without (never a panic; decode
# errors come back from ReadAll) — and over the assembler: source text →
# asm.Assemble → a step-bounded vm.Exec (errors allowed, never a panic or
# an unbounded allocation) — and over lvpd's cell endpoint: arbitrary bodies
# to POST /v1/cells with a stub cell runner (200 or a 4xx JSON error, never a
# panic).
fuzz:
	$(GO) test -fuzz='FuzzRoundTrip$$' -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz='FuzzStreamRoundTrip$$' -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz='FuzzVLT2RoundTrip$$' -fuzztime=30s ./internal/trace/
	$(GO) test -run XXX -fuzz='FuzzVLT2Payload$$' -fuzztime=30s ./internal/trace/
	$(GO) test -run XXX -fuzz='FuzzTraceCompact$$' -fuzztime=30s ./internal/trace/
	$(GO) test -run XXX -fuzz='FuzzSimulate$$' -fuzztime=30s ./internal/exp/
	$(GO) test -run XXX -fuzz='FuzzAssemble$$' -fuzztime=30s ./internal/asm/
	$(GO) test -run XXX -fuzz='FuzzCellRequest$$' -fuzztime=30s ./internal/serve/

# Experiment-engine benchmarks: compare ExpAllSerial vs ExpAllParallel for
# the worker-pool speedup.
bench:
	$(GO) test -run xxx -bench 'BenchmarkExpAll' -benchtime 2x .

# Observability overhead benchmarks: AnnotateSimple vs the nil-tracer and
# disabled-channel variants must agree within noise (<5%); see
# OBSERVABILITY.md.
bench-obs:
	$(GO) test -run xxx -bench 'BenchmarkAnnotate' -benchtime 2s -count 3 .

# Streaming-layer benchmarks: the VLT2 encode and batched decode paths (the
# indexed reader over raw and flate blocks), and the VLT1 Reader's batched
# decode.
bench-stream:
	$(GO) test -run xxx -bench 'VLT2|StreamDecode' -benchtime 1s ./internal/trace/

# BENCH snapshot (see PERFORMANCE.md): benchmark/run.sh's end-to-end run and
# its traced per-layer run, written to OUT as one JSON object
# {"host", "end_to_end", "per_layer"}. OUT is required and must not exist yet,
# so a checked-in snapshot is never overwritten; a run that reports a wrong
# output fails the target and writes nothing.
bench-json:
	@test -n "$(OUT)" || { echo "usage: make bench-json OUT=BENCH_<name>.json" >&2; exit 2; }
	@test ! -e "$(OUT)" || { echo "$(OUT) already exists; pick a new name" >&2; exit 1; }
	mkdir -p .bench_build
	bash benchmark/run.sh > .bench_build/end_to_end.txt
	bash benchmark/run.sh -trace 1 > .bench_build/per_layer.txt
	printf '{"host": %s,\n "end_to_end": %s,\n "per_layer": %s}\n' \
		"$$(sed -n 's/^host //p' .bench_build/end_to_end.txt)" \
		"$$(tail -n 1 .bench_build/end_to_end.txt)" \
		"$$(tail -n 1 .bench_build/per_layer.txt)" > "$(OUT)"

# Streaming memory/identity gate, run standalone (uncached): the
# allocation-regression tests (0 allocs/record on the VLT1 Reader, the VLT2
# Writer2 and the LVP hot paths; the VLT2 reader's batch path at 0 allocs
# per block on raw blocks and a bounded count per block on flate), the
# 10M-record peak-RSS bound of a Writer2 file read back by the IndexedReader
# through ReadAt, the timing models' invariants over random programs and
# suite workloads (one committed instruction per record, one load state per
# load, at least ⌈instructions / width⌉ cycles, deterministic Stats) and
# their refusal of an annotation that does not fit its trace (an error,
# never a panic), the batch-size checks of the VM and VLT1 sources (buffers
# of 1, 7 and 256 records against vm.Run and ReadAll, errors included), the
# compact in-memory trace (the FuzzTraceCompact seeds: arbitrary records,
# hostile ones included, come back exactly through every reader, the row
# view rebuilds every branch, each load's row and PC and each Value
# exception come back, and Scatter puts each load state on its load; the
# memory-op lane layout; the builder's exact-length lanes across its chunk
# boundaries; the MaxStaticRows bound, at it and one past it, through
# FromRecords, Collect, ReadAll and vm.Run; its batches concatenating to the
# records with one allocation per walk; the scale-1 suite's traces at most
# 12 B/record with no Value exceptions; the unit-run resident gauge equal to
# the cached states), the 620's end of run after a final mispredicted
# branch, the batched
# annotation differential, and the CVU's address-boundary invalidation and
# insert-refresh edge cases. All of these also run as part of plain
# `make test` / `make check`.
STREAM_TESTS = 'AllocFree|TestStreamRSS|TestAnnotatorMatchesAnnotate|TestReaderMatchesRead|TestSimulateInvariants|TestSimulateRejectsAnnotationLength|NextBatch|BatchSizes|TestReaderBatchErrorsAgree|TestWalkerOneAllocation|FuzzTraceCompact|TestValueLaneCoding|TestRowLaneDerivation|TestLoadLaneCoding|TestMemOpsLanes|TestBuilderLanes|TestStaticRowsBound|TestRunMatchesSource|TestRunEndsAfterLastMispredict|TestTraceResidentBytes|TestUnitRunResidentBytes|TestRecordBatch|TestCVUInvalidateAddrBoundaries|TestCVUInsertRefresh'
STREAM_PKGS = ./internal/trace/ ./internal/lvp/ ./internal/exp/ ./internal/vm/ ./internal/ppc620/

check-stream:
	$(GO) test -count=1 -run $(STREAM_TESTS) $(STREAM_PKGS)

# Annotation-slab gate, run standalone (uncached), then again under the race
# detector (-short keeps three workloads in the suite differential): the
# memory-op slab walk against Unit.RecordBatch (states and Stats on the
# edge cases, and through the suite on every workload, both targets and
# every unit configuration and sweep point), one unit run per hardware
# configuration and its hardware-identity label, the allocation bounds of
# the slab walk and of a suite unit run, the CVU differential widened to
# 8192 LVPT indices, to forced address-bucket collisions and to the key
# shapes the full-key lookup depends on (strided addresses past capacity
# under one index; one address under several indices), vm.Run's compact
# trace against the Source's record stream on every workload and target,
# with its allocation bound (at most 2.5x the compact trace), the suite as
# the one
# place a model runs (the resource sweep, GVP study and MAF ablation build
# each simulation once, counted and timed; an enlarged 620 is traced; the
# sweep's 620+ row is the union of its four enlargements), and the dataflow
# analysis refusing an annotation that does not fit its trace.
ANNOTATE_TESTS = 'Slab|TestCVUDifferential|FuzzCVUDifferential|TestCVUBucketCollisions|TestOneUnitRun|TestSimCacheByHardware|TestSharedRunLabel|TestUnitRunAllocs|TestRunMatchesSource|TestRunAllocBound|TestSimAccounting|TestEnlargedVariantTraced|TestResourceVariantsUnionIs620Plus|TestAnalyzeAnnotationLength|TestFacadeSimulateMismatchedAnnotation'
ANNOTATE_PKGS = . ./internal/lvp/ ./internal/exp/ ./internal/vm/ ./internal/dfg/

check-annotate:
	$(GO) test -count=1 -run $(ANNOTATE_TESTS) $(ANNOTATE_PKGS)
	$(GO) test -race -count=1 -short -run $(ANNOTATE_TESTS) $(ANNOTATE_PKGS)

# Test-list gate: every alternative of STREAM_TESTS and ANNOTATE_TESTS must
# match at least one test in its packages (go test -list), so a test that is
# deleted or renamed cannot drop out of check-stream or check-annotate
# unnoticed. It lists each failing alternative and exits non-zero.
check-test-lists:
	@fail=0; \
	check() { \
		names=$$($(GO) test -list . $$3) || exit 1; \
		for alt in $$(echo "$$2" | tr '|' ' '); do \
			echo "$$names" | grep -E "^(Test|Fuzz|Benchmark|Example)" | grep -Eq -- "$$alt" || { echo "$$1: '$$alt' matches no test in $$3"; fail=1; }; \
		done; \
	}; \
	check STREAM_TESTS $(STREAM_TESTS) "$(STREAM_PKGS)"; \
	check ANNOTATE_TESTS $(ANNOTATE_TESTS) "$(ANNOTATE_PKGS)"; \
	exit $$fail

# Predictor-zoo gate, run standalone (uncached): the randomized two-level
# differential against the map-based reference (predictions, confidence
# state, and replacement victims must be decision-identical), the
# value-history table differential (LVPT Predict/Contains/Update and its
# counters, and HistoryTable.Access, against a slice-of-slices MRU model at
# depths 1-16 with aliasing PCs) and its MaxDepth bound, the
# tagged/set-associative LVPT property tests (alias freedom, LRU victim
# order, 0-allocs gates), the stride edge cases, the checked-in zoosweep
# golden table, serial-vs-parallel byte identity, the served-vs-direct
# zoo-cell identity, and the one-walk load-stream statistics against the
# walks they replaced on every workload (the fused path-LVPT pass vs one
# walk per table, every family's zoo Exact count vs the record walk, the
# predictors table read from the zoo sweep's cells with no walk of its own,
# the cached suite locality vs a direct measurement) — the concurrent sweep
# tests under the race detector.
check-zoo:
	$(GO) test -count=1 -run 'TwoLevel|Assoc|Tagged|Stride|Family|MeasureZoo|MeasureAccuracy|TestZoo|Walk|HistoryTable|PredictorStudy' ./internal/lvp/ ./internal/exp/ ./internal/locality/
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

# Trace-format gate, run standalone (uncached): the format differential
# (records, annotation bytes, and all three machine models' stats
# byte-identical from every VLT2 encoding), the VLT1 leg (every workload's
# VLT1 encoding decodes to the in-memory trace), the checked-in VLT1
# fixtures and the VLT1 Reader's rejection of out-of-range opcode, register
# and load-class bytes, the hostile-input table (truncated blocks,
# corrupted checksums, lying header lengths, overlapping or wrapping index
# entries, the retired codec bytes 2 and 3 — ErrCorrupt, never panics), the
# checked-in fuzz corpus seeds, the round trip in batches of 1, 7 and 256
# records, the random-seek property test, the 0-allocs/record gates on the
# VLT2 batch path, and the writer's byte golden (the sha256 of every
# workload's raw and flate encoding); then the trace commands: tracegen's
# output byte-identical to Write2 of vm.Run, vltconv's fixture conversion
# and -verify's rejections, and lvpdump's VLT1/VLT2 dump identity. The
# writer's tests — the golden, the helper goroutine's lifecycle and its
# sticky errors — run again under the race detector, since Writer2 hands
# blocks to a helper goroutine, and so does vltconv's error-path test (no
# goroutine left behind).
check-vlt2:
	$(GO) test -count=1 -run 'TestVLT2|FuzzVLT2|TestVLT1|TestStreamTrace|TestConvert|TestVerify|TestDumpTrace' ./internal/trace/ ./cmd/tracegen/ ./cmd/lvpdump/ ./cmd/vltconv/
	$(GO) test -count=1 -run 'TestFormatDifferential' ./internal/exp/
	$(GO) test -race -count=1 -run 'TestVLT2Writer|TestWriter|TestConvertError' ./internal/trace/ ./cmd/vltconv/

# Non-test Go lines per package and in total (ROADMAP aim 2): _test.go
# files, testdata/, benchmark/ and .bench_build/ are excluded.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | \
		xargs -0 wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); sub("^\\./", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

# Run the experiment daemon locally (see SERVING.md for the API).
serve:
	$(GO) run ./cmd/lvpd -addr :8347

# Serving-layer gate: the lvpd job manager, HTTP API, and client — including
# the byte-identity, drain, backpressure, and cancellation tests and the
# locality-depth bound on both endpoints — under the race detector.
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
