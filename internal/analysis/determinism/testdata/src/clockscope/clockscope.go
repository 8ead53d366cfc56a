// Package clockscope seeds wall-clock reads on //smoothvet:noalloc paths.
// It is not in determinism.Scope and marks no function deterministic, so
// only the clock rule, rooted at noalloc functions, applies.
package clockscope

import (
	"math/rand"
	"time"
)

// A per-tick step path takes its notion of now from the shard clock.

type conn interface {
	SetWriteDeadline(t time.Time) error
}

type shard struct {
	c     conn
	epoch int64
	last  int64
}

// tick is the per-tick hot path.
//
//smoothvet:noalloc
func (sh *shard) tick(now int64) {
	t := time.Now() // want `time\.Now reads the wall clock on a //smoothvet:noalloc path;`
	_ = t
	sh.last = now
	sh.helper()
	sh.cold()
}

// helper is unmarked but reachable from tick.
func (sh *shard) helper() {
	d := time.Since(time.Unix(0, sh.epoch)) // want `time\.Since reads the wall clock on a //smoothvet:noalloc path \(reachable from tick\)`
	_ = d
	_ = sh.c.SetWriteDeadline(time.Now().Add(time.Second)) // want `time\.Now reads the wall clock on a //smoothvet:noalloc path \(reachable from tick\)`
}

// cold derives time from the shard clock: allowed.
func (sh *shard) cold() {
	deadline := time.Unix(0, sh.last).Add(time.Second) // ok: conversion, not a clock read
	_ = sh.c.SetWriteDeadline(deadline)
}

// idle is not reachable from any marked root.
func (sh *shard) idle() time.Duration {
	return time.Since(time.Unix(0, sh.last)) // ok: off every step path
}

// loop reads the clock inside a closure on a noalloc path.
//
//smoothvet:noalloc
func (sh *shard) loop(n int) {
	for i := 0; i < n; i++ {
		f := func() {
			_ = time.Now() // want `time\.Now reads the wall clock on a //smoothvet:noalloc path;`
		}
		f()
	}
}

// unrandom is noalloc but not deterministic: only the clock rule applies.
//
//smoothvet:noalloc
func unrandom() int {
	return rand.Intn(3) // ok: the rand rule starts from deterministic roots only
}
