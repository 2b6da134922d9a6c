#!/usr/bin/env bash
# Builds the product-path benchmark from the checkout's own sources and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare A.json B.json
#
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$build/melody-perfbench" .) >&2
cd "$root"
exec "$build/melody-perfbench" "$@"
