#!/bin/sh
# Record the benchmark suite in the committed-baseline protocol and convert
# it to benchjson format. Usage:
#
#   scripts/bench_baseline.sh [OUT.json]     (default: BENCH_quick.json)
#
# The protocol is a fixed iteration count (-benchtime 5x) so bytes/op and
# allocs/op are deterministic, plus a second pass over BenchmarkSweepWorkers
# at -cpu 1,4 to record the sweep-parallelism profile on multi-core hosts.
# scripts/verify.sh runs the identical protocol and diffs the result against
# BENCH_quick.json with cmd/benchdiff; run this script (with no argument)
# and commit the result after an intentional performance change.
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_quick.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go build -o bin/benchjson ./cmd/benchjson

go test -run '^$' -bench . -benchmem -benchtime 5x ./... > "$tmp"
go test -run '^$' -bench '^BenchmarkSweepWorkers$' -benchmem -benchtime 5x \
    -cpu 1,4 . >> "$tmp"

bin/benchjson -in "$tmp" -out "$out"
echo "bench baseline written to $out"
