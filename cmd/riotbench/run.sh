#!/usr/bin/env bash
# Builds riotbench from source and runs it with the given arguments, e.g.
#
#   bash cmd/riotbench/run.sh --workload edit_loop --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact (Go build cache,
# module cache, temporary files, the binary) and the benchmark's own
# scratch files stay under .bench_build in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd cmd/riotbench && go build -o "$build/riotbench" .)
exec "$build/riotbench" "$@"
