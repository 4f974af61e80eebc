#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload edge-dynamic --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and traced runs' spans stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/spans"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/gotmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/spans" "$@"
