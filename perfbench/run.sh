#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 25 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ so nothing
# is written outside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in the
# checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0 GOFLAGS=-mod=mod
XDG_CONFIG_HOME="$out/config" go -C "$root/perfbench" build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
