#!/usr/bin/env bash
# Builds perfbench and its node daemon from the sources of the
# checkout this script sits in, then runs perfbench with the given
# arguments:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 8 --trace 0
#
# Build outputs and the Go build cache go under $CARGO_TARGET_DIR (default
# .bench_build at the checkout root), so nothing is written outside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$root/perfbench"
go build -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/benchnode" ./benchnode >&2
exec "$out/bin/perfbench" -root "$root" -node-bin "$out/bin/benchnode" -work "$out/runs" "$@"
