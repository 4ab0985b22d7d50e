#!/usr/bin/env bash
# alloc_rounds.sh — does a warm engine converge? Runs the scenario shapes
# of the benchmark's five engine workloads (paper49, grid225, mobile100,
# hotspot49, observed49; scripts/allocrounds) for four passes on one warm
# engine per shape and prints the heap allocations per run of each pass.
# Every pass after the first should read the same; the command exits 1
# when one allocates more than the pass before it. Extra arguments go to
# the command: -shape NAME runs one shape, -memprofile PREFIX writes the
# allocation profiles after the first and the last pass, whose difference
#   go tool pprof -sample_index=alloc_objects -base PREFIX-pass1.pprof PREFIX-last.pprof
# lists what the later passes allocated. `make alloc-rounds` runs it.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
go run ./scripts/allocrounds -passes 4 "$@"
