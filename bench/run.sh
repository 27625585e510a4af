#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it from the checkout
# root. The benchmark contract allows a run to read and write only inside
# its checkout, and the go command by default writes outside it: the build
# cache and the telemetry counters under HOME, temporary files under /tmp.
# So all three are pointed into .bench_build/, next to the binary.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export HOME="$build" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
unset XDG_CONFIG_HOME XDG_CACHE_HOME GOFLAGS GOENV GOPATH GOMODCACHE
go build -C bench -o "$build/tpascd-bench" .
exec "$build/tpascd-bench" "$@"
