#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source into
# .bench_build/ of the checkout it is run from (the Go build cache
# included, so nothing is written outside the checkout), then run it with
# the caller's arguments. A rebuild of unchanged sources is a cache hit.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
