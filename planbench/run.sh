#!/usr/bin/env bash
# Builds planbench from this checkout's sources and runs it with the given
# arguments, from the checkout's root:
#
#   bash planbench/run.sh --workload plan_cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
  XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C planbench build -buildvcs=false -o "$build/planbench" .
exec "$build/planbench" "$@"
