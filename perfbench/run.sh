#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload hot_small --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout's root. The Go build cache, the binary and
# the benchmark's scratch files all stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
