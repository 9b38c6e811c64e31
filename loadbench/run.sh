#!/usr/bin/env bash
# Builds the loopback benchmark from the checkout's sources and runs it.
# Run from the repository root; every argument is passed to the binary:
#
#   bash loadbench/run.sh --workload sweep_sim --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary stay under
# .bench_build/ so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

go -C loadbench build -o "$build/loadbench" .
exec "$build/loadbench" -root "$root" "$@"
