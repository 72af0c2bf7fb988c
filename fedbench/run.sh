#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it:
#
#	bash fedbench/run.sh --workload paper-cnn --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache) stays under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/fedbench" build -buildvcs=false -o "$out/fedbench" .
exec "$out/fedbench" "$@"
