#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Every build artefact and cache stays under .bench_build/ at the root of
# the checkout. Arguments are passed through, e.g.
#
#   bash e2ebench/run.sh --workload serve-durable --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" --scratch "$out/scratch" "$@"
