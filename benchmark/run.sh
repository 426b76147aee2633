#!/usr/bin/env bash
# The benchmark's one command, as BENCHMARK.json names it: builds
# jsonbench from this checkout into .bench_build/ (the go command's
# build cache, temp files and per-user config stay inside the checkout
# too) and runs it with the arguments given. jsonbench builds
# ./cmd/jsonstored itself.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTMPDIR="${GOTMPDIR:-$build/tmp}" XDG_CONFIG_HOME="$build/config"
(cd "$root/benchmark" && go build -o "$build/bin/jsonbench" ./jsonbench)
cd "$root"
exec "$build/bin/jsonbench" "$@"
