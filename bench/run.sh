#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout. The Go build cache and the binary live under
# .bench_build/ in the checkout, so nothing outside it is written.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/go-cache" CGO_ENABLED=0
go build -o .bench_build/rtdls-bench ./bench
exec .bench_build/rtdls-bench "$@"
