#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it with
# the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload city-live --seed 1 --seconds 45 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOTELEMETRY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
