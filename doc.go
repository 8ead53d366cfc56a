// Package repro reproduces "Optimal smoothing schedules for real-time
// streams" by Mansour, Patt-Shamir and Lapid (PODC 2000; Distributed
// Computing 2004): the generic lossy smoothing algorithm and its B = R·D
// law, the 4-competitive greedy drop policy, the online lower bounds, and
// the MPEG smoothing experiments of Section 5.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured record. The library lives under
// internal/ (stream, sched, core, drop, offline, trace, competitive,
// lossless, linksim, netstream, experiment, stats) with its headline
// results as Example functions; runnable tools live under cmd/.
//
// The benchmarks in bench_test.go regenerate every figure and table:
//
//	go test -bench=Fig -benchmem .
package repro
