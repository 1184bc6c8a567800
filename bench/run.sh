#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given, from the root of the checkout:
#
#   bash bench/run.sh --workload wire-4c --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                 # all four workloads, each in a child
#   bash bench/run.sh -trace 1        # ... and each one's traced run
#   bash bench/run.sh -aa 5           # the A/A table
#
# Everything the build and the runs write (Go's build cache included) goes
# under .bench_build/ in the checkout. The Go sources sit in bench/_gtvbench:
# the underscore keeps them out of `./...` and out of gtv-lint's walk, whose
# committed LINT_findings.json counts every function of the module.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
mkdir -p "$root/.bench_build/tmp" "$root/.bench_build/bin"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
go build -o "$root/.bench_build/bin/gtvbench" ./bench/_gtvbench
exec "$root/.bench_build/bin/gtvbench" "$@"
