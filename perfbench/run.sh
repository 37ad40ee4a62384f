#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root; all arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload browsing --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, the toolchain's temporary and config files
# and the benchmark's scratch data all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
