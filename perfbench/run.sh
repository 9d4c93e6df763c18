#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload week|flashcrowd|megascale --seed N --seconds S --trace 0|1
#
# Everything the build writes (compiled packages, the binary, Go's own
# config and telemetry) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
