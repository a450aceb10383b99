#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file it writes
# (Go build cache, binary, sockets, trace files) under .bench_build in the
# directory it is started from — the root of a checkout.
#
#   bash benchmark/run.sh --workload serve_wire --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh -workload all -out runs.json
#   bash benchmark/run.sh -compare a.json b.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config" # Go's telemetry counters
export GOTOOLCHAIN=local

# The build cache makes this a no-op after the first run in a checkout.
(cd "$here" && go build -o "$build/benchmark" .)

exec "$build/benchmark" "$@"
