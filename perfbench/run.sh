#!/usr/bin/env bash
# Builds the node benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload wire-bmp --seed 1 --seconds 20 --trace 0
# Everything the build and the run write (binary, Go build cache, Go
# config and telemetry, temp files, traces) stays under .bench_build in
# the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
