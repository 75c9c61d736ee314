#!/usr/bin/env bash
# Builds the benchmark and cmd/gridnode from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh -workload sim-fig2 -seed 1 -seconds 10 -trace 0
#
# Everything it writes (Go build cache, binaries, node scratch files,
# result records) stays under the build directory inside the checkout:
# $CARGO_TARGET_DIR if set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/gridnode" repro/cmd/gridnode)
exec "$build/bin/perfbench" -gridnode "$build/bin/gridnode" -workdir "$build/run" "$@"
