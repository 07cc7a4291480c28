#!/usr/bin/env bash
# Builds cmvrpbench from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash bench/run.sh --workload offline-plan --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the toolchain's telemetry counters (kept
# under XDG_CONFIG_HOME), the binary, and the traced runs' outputs. The
# build fails, and the script exits non-zero, when the program's module
# (the checkout root's go.mod) is missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C "$root/bench" build -o "$out/cmvrpbench" ./cmd/cmvrpbench
exec "$out/cmvrpbench" "$@"
