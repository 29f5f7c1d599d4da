#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from this
# directory's own module and runs it from the repository root, keeping every
# byte the Go toolchain writes (build cache, binaries, work files) under
# .bench_build/ in the checkout. In a directory that holds only the
# benchmark the build fails and so does this script, before any result.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p .bench_build/bin
go build -C bench -o "$root/.bench_build/bin/bench" .
exec .bench_build/bin/bench "$@"
