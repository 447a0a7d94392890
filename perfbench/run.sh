#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady -runs 5
#
# Every build and run artifact (Go build cache, binary, data
# directories, traces) stays under .bench_build in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
