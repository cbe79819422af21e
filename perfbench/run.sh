#!/usr/bin/env bash
# Builds the benchmark and ccserve from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload compile --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binaries, reports, spans
# files) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$out/ccserve" ./cmd/ccserve >&2
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -ccserve "$out/ccserve" -out "$out" "$@"
