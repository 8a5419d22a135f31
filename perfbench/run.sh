#!/usr/bin/env bash
# Builds the benchmark and cmd/listrankd from this tree with the
# installed Go toolchain, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs, the Go build cache, daemon logs and span files all go
# under .bench_build/ at the root of the tree.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# Keep every file the toolchain writes inside the tree, and never reach
# for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C "$root" build -o "$out/listrankd" ./cmd/listrankd >&2
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" -daemon "$out/listrankd" -workdir "$out" "$@"
