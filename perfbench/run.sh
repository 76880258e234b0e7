#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in, then runs
# it with the given arguments:
#
#   bash perfbench/run.sh --workload cycles-cold --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the service-mix store all live
# under .bench_build/ at the checkout root; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --tmp "$build/tmp" "$@"
