#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash escbench/run.sh --workload chain2 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files, the intent store's scratch directory) stays under .bench_build
# in the repository root. Outside a checkout with go.mod and the
# sources, the build fails and so does this script.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
# With telemetry in its default "local" mode, the go command forks a
# detached sidecar process (its own session) that can outlive this script.
# Turning telemetry off in the private config directory keeps go from
# starting it, so every process this script starts has ended when it exits.
echo off >"$out/config/go/telemetry/mode"

go build -o "$out/escbench" ./escbench
exec "$out/escbench" "$@"
