#!/usr/bin/env bash
# Builds the chanOS benchmark from the checkout's source and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload kv-read-hot --seed 7 --seconds 40 --trace 0
#
# The build cache, temporary files and the binary stay under
# .bench_build (or $CARGO_TARGET_DIR when set) in the current directory;
# traced runs write their spans under .bench_out.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go build -C "$here" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
