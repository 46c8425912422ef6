#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#   bash perfbench/run.sh --workload kv-open --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Every build artifact, cache and
# scratch file stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/cache"
export GOCACHE="$build/cache/go-build" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

# The module replaces repro with the enclosing tree; outside it (only
# perfbench/ present) this build fails and the script exits nonzero.
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --scratch "$build" "$@"
