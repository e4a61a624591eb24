#!/usr/bin/env bash
# Builds cmd/ltreed and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Everything the build and the run
# write stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ltreed" ]; then
	echo "perfbench: no ltree module with cmd/ltreed at $root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's config and telemetry live under XDG_CONFIG_HOME. With
# telemetry on (its default is "local") the go command starts a detached
# upload process that outlives the build, so turn it off.
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
echo off >"$out/config/go/telemetry/mode"
go -C "$root" build -o "$out/ltreed" ./cmd/ltreed
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" "$@"
