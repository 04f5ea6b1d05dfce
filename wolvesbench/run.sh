#!/usr/bin/env bash
# Builds the wolvesd benchmark from source and runs it. Run it from the
# repository root; every argument is passed on to the benchmark, e.g.
#
#   bash wolvesbench/run.sh --workload lineage-read --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, the live-write data directory and the
# span dumps all stay under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home"
export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"

(cd "$root/wolvesbench" && go build -o "$out/wolvesbench" .)
exec "$out/wolvesbench" --workdir "$out" "$@"
