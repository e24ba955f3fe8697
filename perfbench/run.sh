#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload mlp-serve --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write — binary, Go build cache, reports
# and traces — goes under .bench_build/ in the checkout root. Without the
# repository's sources beside perfbench/ the build fails and so does the run.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/out" "$@"
