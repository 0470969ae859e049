#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout's root with the given arguments. The binary and the Go build
# cache stay in .bench_build at the root, so a run writes nowhere else.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" "$@"
