#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash tinbench/run.sh --workload login --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file the run writes stay under
# .bench_build in the working directory; the build uses no network.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/modcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/modcache" GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd tinbench && go build -o "$out/tinbench" .) >&2
exec "$out/tinbench" "$@"
