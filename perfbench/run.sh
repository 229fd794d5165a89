#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload figure-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary, and the
# benchmark's trace/checkpoint caches and span files.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/home/go" GOMODCACHE="$out/home/go/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out/work" "$@"
