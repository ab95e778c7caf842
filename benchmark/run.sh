#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it
# is started from (Go build cache and temp files included, so nothing is
# written outside the checkout) and runs it with the given arguments.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOWORK=off GOFLAGS=
go build -C "$(dirname "$0")" -o "$build/hsbenchmark" .
exec "$build/hsbenchmark" "$@"
