#!/bin/sh
# Builds the benchmark program and runs it with the given arguments. Run from
# the repository root:
#
#   sh benchmark/run.sh -workload all -seed 1
#
# The build and Go's build cache live in .bench_build/ under the current
# directory, so nothing is read or written outside the checkout but the Go
# toolchain itself. The benchmark module imports the repository's packages
# through a replace directive; without them the build fails, and so does
# this script.
set -eu

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd benchmark && go build -o "$out/sharc-benchmark" .)
exec "$out/sharc-benchmark" "$@"
