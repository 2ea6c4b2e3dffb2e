#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Run from the repository root: bash bench/run.sh --workload
# hot-cache --seed 1 --seconds 24 --trace 0
#
# Everything the go tool and the benchmark write (build cache, temp files,
# the binary, the persist store's temp dirs) goes under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOCACHE" "$GOTMPDIR" "$out/tmp"
go build -C "$root/bench" -o "$out/ecrpq-bench" .
exec "$out/ecrpq-bench" -scratch "$out/tmp" "$@"
