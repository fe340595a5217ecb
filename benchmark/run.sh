#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the root of
# a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temp files, the binary, per-run
# state directories, and the per-seed record of exact outputs that later
# runs of the same seed are checked against.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/benchmark" && go build -o "$build/prudentia-bench" .) 1>&2

exec "$build/prudentia-bench" "$@"
