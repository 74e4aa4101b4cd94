#!/usr/bin/env bash
# run.sh builds the benchmark from this checkout's sources and runs it.
# Run it from the repository root; every flag is passed on, e.g.
#
#   bash perfbench/run.sh --workload verify-raw --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every file a run writes (spill chunks,
# span files) stay under .bench_build in the current directory. A tree
# without the repository's module fails the build and prints no result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
