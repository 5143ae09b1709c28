#!/usr/bin/env bash
# Builds the benchmark from the sources in the working directory and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-awake-mis --seed 1 --seconds 25 --trace 0
#
# Build products, the Go build cache, traces, results and digest records
# all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .) >&2
rev=none
if [ -e .git ]; then rev=$(git rev-parse HEAD 2>/dev/null || echo none); fi
exec "$out/perfbench" --out "$out" --rev "$rev" "$@"
