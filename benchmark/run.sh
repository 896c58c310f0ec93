#!/usr/bin/env bash
# The benchmark's entry point for the driver: builds the command from
# source inside the checkout (build cache included, so nothing is read
# or written outside it) and runs it with the arguments given.
#
#   bash benchmark/run.sh --workload pr_sem --seed 1 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/fg-benchmark" ./benchmark
exec "$build/fg-benchmark" "$@"
