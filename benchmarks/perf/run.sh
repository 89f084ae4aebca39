#!/bin/bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout, then runs it with the driver's arguments. Building
# happens before the program starts, so build time is never inside a
# metric. Everything the toolchain writes (build cache, module cache, its
# own config) is kept under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/ivdss-perf" .)
cd "$root"
exec "$build/ivdss-perf" "$@"
