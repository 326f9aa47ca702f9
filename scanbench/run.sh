#!/usr/bin/env bash
# Builds kserve, kcached and the benchmark from this checkout, then runs
# the benchmark in place of this shell (so a signal to this process
# reaches the benchmark itself). Run from the repository root:
#
#   bash scanbench/run.sh --workload warm-rescan --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and temp directories go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
work=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$work"
work=$(cd "$work" && pwd)
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$work/bin/" knighter/cmd/kserve knighter/cmd/kcached .) >&2
exec "$work/bin/scanbench" -bin "$work/bin" -work "$work" "$@"
