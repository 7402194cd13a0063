#!/usr/bin/env bash
# Builds the strata serve benchmark from source and runs it. Run from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload campaign-1e6 --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary and the traced run's span files go under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
