#!/bin/bash
# Entry point named by BENCHMARK.json: build the benchmark from source
# inside the checkout, then run it with the driver's arguments.  The
# build cache, the binary and every temporary file (store directories)
# stay under .bench_build, so nothing is read or written elsewhere.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
go build -o "$build/omos-benchmark" ./benchmark
exec "$build/omos-benchmark" "$@"
