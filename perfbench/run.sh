#!/usr/bin/env bash
# Builds perfbench and ./cmd/selfheal-serve from this
# checkout, then runs perfbench with the given arguments. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload fleet-rw --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache and temporary files included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"

go build -o "$out/selfheal-serve" ./cmd/selfheal-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/selfheal-serve" -work "$out" "$@"
