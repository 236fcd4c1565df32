#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash mlbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The Go build cache, module cache and the binary live in .bench_build
# at the checkout root, so nothing is read or written outside it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
	go -C "$root/mlbench" build -o "$build/mlbench" .
cd "$root"
exec "$build/mlbench" -root "$root" "$@"
