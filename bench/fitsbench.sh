#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/fitsbench.sh --workload cold-image --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# goes to .bench_build in the current directory; nothing is fetched.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local \
	GOFLAGS=-mod=readonly CGO_ENABLED=0
go -C bench build -o "$out/fitsbench" ./cmd/fitsbench
exec "$out/fitsbench" "$@"
