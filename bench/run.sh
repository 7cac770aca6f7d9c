#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The
# build cache, the binary, relfiles, spill segments and span files all
# stay under .bench_build/ at the root of the checkout.
#
#   bash bench/run.sh --workload single_engine --seed 1 --seconds 15 --trace 0
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go build -C "$root/bench" -ldflags "-X main.commit=$commit" -o "$build/proxbench" .

cd "$root"
exec "$build/proxbench" -tmp "$build/tmp" "$@"
