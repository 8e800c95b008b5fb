#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload hot-run --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that directory: the Go build cache, the binary,
# scratch data and the span files of traced runs.
set -euo pipefail

mkdir -p .bench_build
build=$(cd .bench_build && pwd)
mkdir -p "$build/home" "$build/tmp" "$build/work"

# Keep the toolchain's caches, config and temp files inside the build
# directory, and never reach for the network.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build/work" "$@"
