#!/usr/bin/env bash
# Builds crestbench from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash crestbench/run.sh --workload http-estimate-96 --seed 1 --seconds 20 --trace 0
#
# Every build product and cache goes under $CARGO_TARGET_DIR (default
# .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOTOOLCHAIN=local GOFLAGS=
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache

(cd "$root/crestbench" && go build -o "$out/crestbench" .)
exec "$out/crestbench" --dir "$out" "$@"
