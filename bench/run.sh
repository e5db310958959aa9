#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload suite-compile --seed 1 --seconds 15 --trace 0
#
# Every build artifact (binary, Go build cache, temp files) stays under
# .bench_build/ in the current directory, and the module proxy is off, so the
# run touches nothing outside the checkout. The build fails, and the script
# exits non-zero, when the repository's own module is not next to bench/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local \
	GOFLAGS=-buildvcs=false
go -C bench build -o "$out/dmacp-bench" .
exec "$out/dmacp-bench" "$@"
