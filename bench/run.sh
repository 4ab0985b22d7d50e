#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command. Run from the repository root:
#   bash bench/run.sh --workload paper49 --seed 1 --seconds 10 --trace 0
# Builds the benchmark (its own module, bench/go.mod) into .bench_build/
# inside the checkout and runs it. Everything the toolchain writes (build
# cache, temporary files) is kept inside .bench_build/ as well, so a run
# reads and writes only its checkout. The first run pays the build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/meshbench" .)
exec "$build/meshbench" --out "$build/out" "$@"
