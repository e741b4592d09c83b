#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Every argument goes to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload match --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the ingest workload's data
# directories all live under .bench_build at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
