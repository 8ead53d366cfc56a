#!/bin/sh
# Extended verification: everything tier-1 runs (build + tests) plus vet,
# formatting, and the race detector over the whole module. CI runs this
# script; run it locally before sending a change.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== smoothvet"
# Project-specific analyzers (aliasing, determinism and the wall clock,
# hot-path allocations, error hygiene, publication immutability, shard
# confinement); see DESIGN.md "Enforced invariants". The run is timed against a generous wall-clock budget: the flow-sensitive
# engine must stay cheap enough to run on every push, and a quadratic
# blow-up in the CFG or call-graph layer should fail loudly here, not
# slowly rot CI.
go build -o bin/smoothvet ./cmd/smoothvet
smoothvet_start=$(date +%s)
go vet -vettool=bin/smoothvet ./...
smoothvet_elapsed=$(( $(date +%s) - smoothvet_start ))
echo "smoothvet: ${smoothvet_elapsed}s"
if [ "$smoothvet_elapsed" -gt 120 ]; then
    echo "smoothvet took ${smoothvet_elapsed}s (budget 120s); profile the analyzers" >&2
    exit 1
fi

echo "== typed atomics"
# Every atomic word is a sync/atomic type (atomic.Int64, atomic.Bool, ...),
# whose only access path is its methods, so no plain read can race an
# atomic store; vet's copylocks catches copies. The function forms would
# let a word be read plainly elsewhere, so they stay out.
if grep -rnE 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int32|Int64|Uint32|Uint64|Uintptr|Pointer)\(' --include=*.go . | grep -vE '^\./internal/analysis/[^/]+/testdata/'; then
    echo "function-form sync/atomic call (lines above); use a typed atomic" >&2
    exit 1
fi

echo "== go build"
go build ./...

echo "== go build (darwin)"
# Cross-compile for a second GOOS: internal/reactor is split into
# poller_linux.go (epoll, socket read/write/close, fd duplication) and
# poller_stub.go by build tags,
# and only a cross-build catches a symbol that drifted out of the shared
# surface — or an engine that reached past the reactor for a linux syscall.
GOOS=darwin go build ./...

echo "== one epoll"
# The engines share one poller: nothing outside internal/reactor may name
# the epoll syscalls, nor duplicate a socket out of the runtime's poller
# (reactor.Adopt is the one place that does).
if grep -rlE 'Epoll(Wait|Create1|Ctl)|F_DUPFD' --include=*.go internal cmd | grep -v '^internal/reactor/'; then
    echo "epoll or fd adoption used outside internal/reactor (files above)" >&2
    exit 1
fi

echo "== one syscall layer"
# internal/reactor is the only code that touches a socket: the engines
# read, write and close through reactor.Read/Write/Close and their one
# errno rule, and name no syscall. The front tier relays by copy through
# one buffer per shard; splice and its per-session pipes must not come back.
if grep -rn 'syscall\.' --include=*.go internal/serve internal/lb internal/loadgen | grep -v '_test\.go:'; then
    echo "a raw syscall in an engine (lines above); go through internal/reactor" >&2
    exit 1
fi
if grep -rnE 'syscall\.(Splice|Pipe2)|reactor\.(Splice|Pipe)\b' --include=*.go internal cmd | grep -v '_test\.go:'; then
    echo "splice or a relay pipe is back (lines above)" >&2
    exit 1
fi

echo "== one placement path"
# The front tier admits a session on two rules (MaxSessions and the
# admission gate) and starts its placement at once, bounded by a
# PlaceWorkers-deep slot channel. A pending-admit queue, its worker pool
# and its queue-full rejection were a third admission rule no test held;
# they must not come back.
if grep -rnE 'chan \*session|placeLoop|pendingLimit|errQueueFull' --include=*.go internal/lb | grep -v '_test\.go:'; then
    echo "a pending-admit queue is back in internal/lb (lines above)" >&2
    exit 1
fi

echo "== one nap"
# A loaded reactor lets ready fds gather for at most settle before it
# serves them (reactor.Loop.Run); that nap is the only one. The engines
# wait on the poller, a tick or a channel, never on a sleep, so settling
# happens only in internal/reactor.
if grep -rnE 'time\.Sleep|Nanosleep' --include=*.go internal/serve internal/lb internal/loadgen | grep -v '_test\.go:'; then
    echo "a sleep in an engine (lines above); settle only in internal/reactor" >&2
    exit 1
fi

echo "== one owner per socket"
# A serve row flushes its adopted socket with a non-blocking write(2), and
# a client that stops reading is retired stalled-out on the model clock:
# no write deadline, deadline writer or atomic tick clock may come back.
# Sockets are adopted (reactor.Adopt), never shared with the runtime's
# poller, so ConnFd stays deleted.
if grep -rnE 'SetWriteDeadline|deadlineWriter|WriteTimeout|tickClock' --include=*.go internal/serve | grep -v '_test\.go:'; then
    echo "a blocking-write remnant is back in internal/serve (lines above)" >&2
    exit 1
fi
if grep -rn 'ConnFd' --include=*.go .; then
    echo "ConnFd is back (lines above)" >&2
    exit 1
fi

echo "== one receiver"
# Every client — netstream.Receive for single and multiplexed sessions,
# loadgen, smoothbench — accounts playout on core.RecvWindow; the map-based
# receiver and its result types must not come back.
if grep -rnE 'NewReceiver|ReceiveMux|PlayEvent|ReceivedSlice|MuxStats' --include=*.go .; then
    echo "a second receiving path is named (lines above)" >&2
    exit 1
fi

echo "== outcomes per span"
# A schedule keeps its outcomes as spans of equal fate (sched.Outcome
# First/End); outside internal/sched a reader walks them (Walk, At), and no
# index into the span list may pose as a slice ID. core.Recorder logs ID
# ranges; its per-slice pendingLate map must not come back.
if grep -rnE 'Outcomes\[[A-Za-z_]' --include=*.go internal cmd | grep -v '_test\.go:' | grep -v '^internal/sched/'; then
    echo "per-slice indexing of sched.Schedule.Outcomes (lines above)" >&2
    exit 1
fi
if grep -rn 'pendingLate' --include=*.go internal cmd | grep -v '_test\.go:'; then
    echo "the per-slice late map is back (lines above)" >&2
    exit 1
fi

echo "== go test"
go test ./...

echo "== go test -race"
go test -race ./...

echo "== smoothbench vet + smoke"
# The benchmark is its own module (bench/go.mod replaces repro => ../), so
# ./... above does not reach it. Its tests run every workload at 16
# sessions, traced and untraced, with all output checks against the
# reference session (about 2 s): a tier change that breaks a smoothbench
# check fails here, before review.
go vet -C bench ./...
go test -C bench ./...

echo "== loopback capacity smoke (1k sessions)"
# One real client-engine wave against a real serving engine over loopback
# TCP — the cheap end-to-end check that the sharded client reactor, the
# wire framing and the playout accounting still work together at density.
# The test also scrapes /metrics mid-wave and asserts the key series: the
# active-sessions gauge reaches the wave size and the step-lag histogram
# fills while traffic flows.
LOADGEN_SMOKE=1000 go test -count=1 -run '^TestLoopbackCapacitySmoke$' ./internal/loadgen

echo "== fleet relay smoke (1k sessions, mid-wave backend drain)"
# The same wave shape through the front tier: loadgen -> smoothlb engine
# -> two serving engines, with a graceful backend drain landing mid-wave.
# Zero client-visible failures are required across the drain, and the
# drained backend's placement tail must stay bounded.
LB_SMOKE=1000 go test -count=1 -run '^TestFleetSmoke$' ./internal/lb

echo "== fuzz: admission dual solve vs nested search (10 s)"
# admission.MaxStreams solves the Chernoff criterion in its dual form (one
# search over the tilt) and must agree with a binary search over K, each probe a full ChernoffExponent solve, on arbitrary
# positive demand, capacity and eps. The committed seed corpus in
# internal/admission/testdata/fuzz also runs under plain go test above.
go test -run '^$' -fuzz '^FuzzMaxStreamsMatchesOracle$' -fuzztime 10s ./internal/admission

echo "== fuzz: forked run vs replay (10 s)"
# core.Runner.ForkInto copies a run in progress onto another stream that
# agrees with it so far; the fork must finish exactly as a run of that
# stream from step 0 does (outcomes, per-step traces, benefit bits), on
# arbitrary run-streams, configurations, policies and cut steps. The
# committed seed corpus in internal/core/testdata/fuzz also runs under
# plain go test above.
go test -run '^$' -fuzz '^FuzzForkMatchesReplay$' -fuzztime 10s ./internal/core

echo "== fuzz: greedy stacks vs per-slice model (10 s)"
# The greedy policy keeps one stack of runs per byte value and hands out
# victims as runs; every victim must be exactly the slices the per-slice
# rule (lowest byte value, newest first) would drop one at a time, under
# arbitrary adds, removals, resets and clones. Its seed inputs also run
# under plain go test above.
go test -run '^$' -fuzz '^FuzzGreedyRuns$' -fuzztime 10s ./internal/drop

echo "== fuzz: one codec (10 s)"
# netstream.Decoder.Parse is the protocol's one decoder: fed arbitrary
# bytes in two chunks at every split point, it must agree message for
# message and error for error with ReadMsg and Decoder.Next, which read
# through it; each message must re-encode to exactly the bytes it came
# from, and no request may exceed the largest legal message. The
# committed seed corpus in internal/netstream/testdata/fuzz also runs
# under plain go test above.
go test -run '^$' -fuzz '^FuzzReadMsg$' -fuzztime 10s ./internal/netstream

echo "== bench + regression gate"
# Run every benchmark in the protocol the committed ledger was recorded
# with (scripts/bench_baseline.sh, -benchtime 5x) and check the text against
# BENCH_quick.json with cmd/benchdiff: every ledger row must be present, and
# B/op and allocs/op — deterministic at a fixed iteration count — may grow
# only within benchdiff's global limits (2x + slack) or the tight rules
# below. The simulation core must stay allocation-free, with no slack: its
# arenas and policies sit on free lists the GC cannot empty (see DESIGN.md
# "Memory layout & amortization"); wall time is not gated here (five iterations on a shared
# 2-vCPU host measure the host; smoothbench measures time). Refresh the
# ledger with scripts/bench_baseline.sh after an intentional change in
# allocation behaviour.
#
# The cohort-served density benchmark is pinned at exactly zero steady-state
# allocations: the whole point of the compute-once layer is that a shard
# tick over 100k sessions touches no allocator at all — nor does the
# coalesced catch-up walk (cohort/catchup, every row four steps behind),
# which the same glob covers. The client engine's per-step path
# (BenchmarkLoadgenStep) carries the same zero pin — the dual invariant for
# the receiving side — as do the front tier's copy relay
# (BenchmarkLBRelayStep) and the observability record path
# (BenchmarkObsRecord): a metric increment, histogram observation or
# flight-recorder append must never touch the allocator. The end-to-end
# loopback waves get wide bounds: one op there is a full wave of real dials
# and sessions, so the dial-path allocation count wobbles with the host.
# Sizing the front tier's admission gate allocates the gate and nothing
# else: the tilt search runs on the stack. A forked Theorem 4.8 game
# (BenchmarkForkedGame) recycles its arenas, policy clones and draw tapes,
# so it allocates nothing either.
./scripts/bench_baseline.sh \
    -rule 'BenchmarkServerStep:allocs=0.0+0,bytes=0.0+0' \
    -rule 'BenchmarkSimulate/*:allocs=0.0+0,bytes=0.0+0' \
    -rule 'BenchmarkForkedGame/*:allocs=0.0+0,bytes=0.0+0' \
    -rule 'BenchmarkEngineStepDensity/cohort/*:allocs=0.0+0,bytes=0.0+0' \
    -rule 'BenchmarkLoadgenStep/*:allocs=0.0+0,bytes=0.0+0' \
    -rule 'BenchmarkObsRecord/*:allocs=0.0+0,bytes=0.0+0' \
    -rule 'BenchmarkLoopback/*:allocs=0.3+8192,bytes=0.5+8388608' \
    -rule 'BenchmarkLBRelayStep/*:allocs=0.0+0,bytes=0.0+0' \
    -rule 'BenchmarkNewGate:allocs=0.0+0,bytes=0.0+0' \
    -rule 'BenchmarkFleetLoopback/*:allocs=0.3+8192,bytes=0.5+8388608'

echo "verify: OK"
