#!/usr/bin/env bash
# Builds the dcsd benchmark from the sources of the checkout it is run from
# (the repository root) and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload mine-hot --seed 1 --seconds 20 --trace 0
#
# Build cache, temporary files, data files and spans stay under .bench_build
# in the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
