#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build writes (binary, Go build cache) stays in
# .bench_build at the root of the checkout; the benchmark itself writes
# only to benchmark/out. Run from anywhere; it works from the root.
#
#   bash benchmark/run.sh --workload comm.n5 --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh                 # whole suite, round-robin
#   bash benchmark/run.sh -selfcheck      # the suite twice, compared within its bounds
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

# Keep every file the Go toolchain writes (build cache, module cache,
# its telemetry counters under the user config directory) in the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C "$here" -o "$build/cmtbench" .
cd "$root"
exec "$build/cmtbench" "$@"
