#!/usr/bin/env bash
# Builds valleybench from this checkout and runs it with the given
# arguments, from the checkout's root:
#
#   bash valleybench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
#
# The Go build cache and the binary stay inside the checkout, under
# ${CARGO_TARGET_DIR:-.bench_build}.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$build/gomodcache"
export GOMODCACHE="$build/gomodcache"
go build -C valleybench -o "$build/valleybench" .
exec "$build/valleybench" -out "$build/valleybench-out" "$@"
