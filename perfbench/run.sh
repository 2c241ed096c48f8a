#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload index-wide --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build products, the Go build
# cache and the span files of traced runs all stay under .bench_build
# (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go-cache
export GOPATH=$out/gopath
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOENV=off
export XDG_CONFIG_HOME=$out/config

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
