#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash perfbench/run.sh --workload cluster-write --seed 1 --seconds 20 --trace 0
# Build caches, the binary and run data stay in .bench_build/ at the root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOFLAGS= \
	GOPATH="$build/home/go" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
