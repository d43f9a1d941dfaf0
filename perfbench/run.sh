#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-approx --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, the job
# store's temporary directory) stays under .bench_build in the checkout, or
# under CARGO_TARGET_DIR when that is set. No network access is needed: the
# module has no dependencies outside the repository.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/gocache" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off GOTELEMETRY=off
export XDG_CONFIG_HOME=$out/config TMPDIR=$out/tmp

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
