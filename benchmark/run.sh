#!/usr/bin/env bash
# Entry point of the benchmark driver (BENCHMARK.json's command). It builds
# the benchmark from source with every build product — Go's build cache
# included — under .bench_build in the checkout, then runs it from this
# directory, so trace files and data directories land in benchmark/out.
# By hand, `cd benchmark && go run . -workload sat.read -seed 1` is the same.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
