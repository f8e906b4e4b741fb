#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. Everything the build leaves behind —
# the Go build cache included — stays in .bench_build/ inside the
# checkout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="${GOPATH:-$build/gopath}" GOTOOLCHAIN=local
(cd "$bench" && go build -o "$build/xdeal-bench" .)
exec "$build/xdeal-bench" "$@"
