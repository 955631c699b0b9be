#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags.
# Run from the repository root, e.g.
#
#   bash benchmark/run.sh --workload paper-all --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ so nothing is
# written outside the checkout. The build needs the repository's own sources
# (the benchmark module replaces module lvp with ../), so it fails, and the
# script exits non-zero, when they are missing.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

go -C benchmark build -o "$build/lvp-benchmark" .
exec "$build/lvp-benchmark" "$@"
