#!/bin/sh
# Builds the benchmark from the checkout it is run from and runs it:
#   sh bench/run.sh --workload stream_swap --seed 1 --seconds 20 --trace 0
# What the build and the run write stays inside the checkout, under
# .bench_build/ and bench/out/ (but see README.md on adapt_prod's journals).
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# The go command's own files (build cache, telemetry counters) too.
export GOCACHE="${GOCACHE:-$build/gocache}" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/safeadapt-bench" .
exec "$build/safeadapt-bench" "$@"
