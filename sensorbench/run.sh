#!/usr/bin/env bash
# Builds the sensor benchmark from the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash sensorbench/run.sh --workload sensor-mixed --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build and run artifact (Go build
# cache, binary, temporary evidence directories, span dumps, result
# records) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/sensorbench" && go build -o "$build/sensorbench" .)
exec "$build/sensorbench" "$@"
