#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (build cache and
# temporary files included, under .bench_build/) and runs it from the
# checkout root. Fails when the program's source is not there to build.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go -C benchmark build -o "$build/prophet-benchmark" .
exec "$build/prophet-benchmark" "$@"
