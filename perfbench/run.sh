#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it
# from the checkout root:
#
#   bash perfbench/run.sh --workload nav-observed --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write (the Go build cache, the
# binary, scratch stores) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
