#!/usr/bin/env bash
# Builds the benchmark and the wsstudy binary it drives, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload fig6-full --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/ in
# the current directory: the Go build cache, both binaries, scratch stores
# and spans.jsonl. Nothing is written outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=

(
	cd "$root/bench"
	go build -o "$out/wsbench" .
	go build -o "$out/wsstudy" wsstudy/cmd/wsstudy
) >&2

exec "$out/wsbench" -wsstudy "$out/wsstudy" -work "$out/work" "$@"
