#!/bin/sh
# The benchmark protocol, written once: every benchmark in the module at a
# fixed iteration count (-benchtime 5x), so B/op and allocs/op are
# deterministic. Its text goes to cmd/benchdiff, which either records it or
# checks it:
#
#   scripts/bench_baseline.sh                   record into BENCH_quick.json
#   scripts/bench_baseline.sh -rule ... [...]   check against BENCH_quick.json
#
# Any arguments are benchdiff flags; none means -record. scripts/verify.sh
# runs the check with the repo's pins; run the record form and commit the
# result after an intentional change in allocation behaviour. The raw text
# is left in bin/bench.txt.
set -eu

cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- -record
go build -o bin/benchdiff ./cmd/benchdiff
go test -run '^$' -bench . -benchmem -benchtime 5x ./... > bin/bench.txt
bin/benchdiff "$@" < bin/bench.txt
