#!/usr/bin/env bash
# The benchmark command of BENCHMARK.json: build bench/ from source inside the
# checkout, then run it with the arguments given. Everything the Go toolchain
# writes (build cache, temporaries, the binary) stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
