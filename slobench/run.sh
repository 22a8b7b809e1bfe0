#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout:
#   bash slobench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters and env file
# under .bench_build too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/slobench" && go build -o "$out/slobench" .)
exec "$out/slobench" "$@"
