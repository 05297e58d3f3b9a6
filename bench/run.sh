#!/usr/bin/env bash
# Builds wormbench into .bench_build/ under the checkout root and runs it.
# This is BENCHMARK.json's command: the build cache lives in the checkout
# too, so a run reads and writes nothing outside it.  By hand,
# `go run ./bench ...` does the same with the user's own cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false
go build -o "$build/wormbench" ./bench
exec "$build/wormbench" "$@"
