#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload sinker-16 --seed 1 --seconds 30 --trace 0
#   bash benchmark/run.sh --compare parent.jsonl change.jsonl
#
# The Go build cache, temporary files and the binary stay in
# .bench_build/ under the current directory; no network is used.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/ptatin-bench" .)
exec "$build/ptatin-bench" "$@"
