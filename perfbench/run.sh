#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it.
#
#   bash perfbench/run.sh --workload swarm-1k --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (binary, Go build cache, daemon data directories) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal/daemon ]]; then
	echo "perfbench: run from the repository root of a full checkout" >&2
	exit 2
fi

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
