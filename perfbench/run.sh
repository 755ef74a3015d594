#!/usr/bin/env bash
# Builds the benchmark from the checkout's source, then runs it:
#
#   bash perfbench/run.sh --workload knn-mr --seed 1 --seconds 25 --trace 0
#
# Run it from anywhere inside a checkout of the repository; it works from
# the checkout's root. The Go build cache, the binary and every scratch
# file stay under .bench_build/ there. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
