#!/usr/bin/env bash
# Builds vbrd, vbrfleet and the serving benchmark from the tree it sits
# in, then runs the benchmark with the given arguments:
#
#   bash _servebench/run.sh --workload paxson-bin --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact and temporary file
# stays under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/vbrd" || ! -d "$root/cmd/vbrfleet" ]]; then
	echo "run.sh: $root holds no vbr source tree (go.mod, cmd/vbrd, cmd/vbrfleet); run it from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gopath" "$build/config/go/telemetry"
# The go command otherwise starts a detached telemetry upload process that
# can outlive this script.
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/bin/" ./cmd/vbrd ./cmd/vbrfleet >&2
go -C "$root/_servebench" build -o "$build/bin/servebench" . >&2
exec "$build/bin/servebench" -bin "$build/bin" -out "$root/_servebench/out" "$@"
