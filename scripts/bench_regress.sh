#!/usr/bin/env bash
# Benchmark-regression smoke: run the allocation-tracked engine benchmarks
# once (their tcp legs carry the binary wire and bucket codecs) and fail if
# any benchmark's allocs/op regressed more than 10% against
# scripts/bench_baseline.txt.
#
# allocs/op is the one benchmark statistic that is deterministic enough to
# gate CI on: ns/op on shared runners is noise, but the engine's allocation
# counts are exact for a fixed workload. Refresh the baseline intentionally
# (and explain why in the commit) with:
#
#   scripts/bench_regress.sh --update
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=scripts/bench_baseline.txt
out=$(mktemp)
trap 'rm -f "$out"' EXIT

run() { # pkg bench-regex
  go test "$1" -run '^$' -bench "$2" -benchtime=1x -count=1 \
    | awk '$NF == "allocs/op" { sub(/-[0-9]+$/, "", $1); print $1, $(NF-1) }'
}

{
  run ./internal/mapreduce/ 'BenchmarkEngine$'
  run ./internal/worker/ 'BenchmarkEngine/backend=inproc$|BenchmarkEngine/backend=tcp'
  run ./internal/serve/ 'BenchmarkServePass$'
} >"$out"

if [[ "${1:-}" == "--update" ]]; then
  cp "$out" "$baseline"
  echo "baseline updated:"
  cat "$baseline"
  exit 0
fi

if [[ ! -f "$baseline" ]]; then
  echo "missing $baseline — run scripts/bench_regress.sh --update" >&2
  exit 1
fi

fail=0
while read -r name allocs; do
  base=$(awk -v n="$name" '$1 == n { print $2 }' "$baseline")
  if [[ -z "$base" ]]; then
    echo "NEW       $name ${allocs} allocs/op (not in baseline; run --update)"
    continue
  fi
  # Fail when allocs/op exceeds baseline by >10%.
  if (( allocs * 10 > base * 11 )); then
    echo "REGRESSED $name ${allocs} allocs/op vs baseline ${base} (>10%)"
    fail=1
  else
    echo "ok        $name ${allocs} allocs/op (baseline ${base})"
  fi
done <"$out"

# A benchmark disappearing silently would hollow out the gate.
while read -r name _; do
  if ! grep -q "^${name} " "$out"; then
    echo "MISSING   $name (in baseline, not produced; run --update if removed on purpose)"
    fail=1
  fi
done <"$baseline"

exit "$fail"
