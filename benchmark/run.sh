#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from the checkout's sources into .bench_build/ and run it with the
# arguments given. Everything the Go toolchain writes (build cache,
# temporary files) is kept inside the checkout; nothing is downloaded.
# Run from the root of the checkout, as the driver does:
#
#   bash benchmark/run.sh --workload busy-alu --seed 1 --seconds 10 --trace 0
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off

# Without go.mod and the simulator's packages (a directory holding only
# BENCHMARK.json and benchmark/) this fails, and nothing is printed.
go build -o "$build/benchmark" ./benchmark

exec "$build/benchmark" "$@"
