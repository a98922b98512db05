#!/usr/bin/env bash
# Builds the host-speed benchmark from the checkout it sits in and runs it
# with the given arguments. Run from the repository root:
#
#   bash hostbench/run.sh --workload fig3 --seed 1 --seconds 24 --trace 0
#
# Build outputs, the Go build cache included, go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in the build
# directory too; GOENV=off ignores any user go env file.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/hostbench" && go build -o "$out/hostbench" .) >&2
exec "$out/hostbench" "$@"
