#!/usr/bin/env bash
# Builds the benchmark (and with it the checker) from the sources of this
# checkout, then runs it with the given arguments. Run from anywhere:
#
#   bash agbench/run.sh --workload fig9-cold --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary, the go command's own state and the runs'
# scratch directories all live under .bench_build/ at the root of the
# checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C agbench build -o "$out/agbench" . >&2
exec "$out/agbench" "$@"
