// Package pubimmutdata seeds post-publication writes to frozen state, next
// to the sanctioned build-then-publish idiom.
package pubimmutdata

import "sync"

// plan is frozen at publication: filled while fresh, immutable once shared.
//
//smoothvet:frozen
type plan struct {
	wire  []byte
	off   []int32
	drops []int32
}

type entry struct {
	once sync.Once
	p    *plan
}

type engine struct {
	entries map[int]*entry
	offers  []int //smoothvet:frozen
	scratch []int
}

// build is the sanctioned idiom: construct, fill, hand to the caller.
func build(n int) *plan {
	p := &plan{}
	for i := 0; i < n; i++ {
		p.drops = append(p.drops, int32(i)) // ok: fresh, under construction
	}
	p.wire = make([]byte, n) // ok: fresh
	p.off = []int32{0}       // ok: fresh
	return p
}

// lookup publishes through a sync.Once and returns the shared plan.
func (e *engine) lookup(k int) *plan {
	ent := e.entries[k]
	ent.once.Do(func() { ent.p = build(k) })
	return ent.p
}

// mutateShared writes a plan read back out of the cache: the violation.
func (e *engine) mutateShared(k int) {
	p := e.entries[k].p
	p.wire[0] = 1                // want `write to field wire of frozen \*plan after publication`
	p.off = nil                  // want `write to field off of frozen \*plan after publication`
	p.drops = append(p.drops, 9) // want `write to field drops of frozen \*plan after publication` `append to frozen slice drops after publication`
	q := lookupGlobal()
	q.wire = nil // want `write to field wire of frozen \*plan after publication`
}

func lookupGlobal() *plan { return nil }

// aliasWrite launders the write through a local alias of the frozen slice.
func (e *engine) aliasWrite(k int) {
	p := e.entries[k].p
	w := p.wire
	w[0] = 1 // want `write through w, an alias of published frozen state`
}

// publishThenWrite: fresh until stored, flagged after on every path.
func (e *engine) publishThenWrite(k int) {
	p := &plan{}
	p.wire = make([]byte, 4) // ok: fresh
	e.entries[k].p = p       // publication
	p.wire[0] = 1            // want `write to field wire of frozen \*plan after publication`
}

// branchPublish: published on one path only — the join is still published.
func (e *engine) branchPublish(k int, share bool) {
	p := &plan{}
	if share {
		e.entries[k].p = p
	}
	p.off = append(p.off, 1) // want `write to field off of frozen \*plan after publication` `append to frozen slice off after publication`
}

// frozenField: a marked field on an unmarked type obeys the same rule.
func (e *engine) frozenField() {
	e.offers[0] = 1                    // want `write to frozen field offers after publication`
	e.scratch = append(e.scratch, 1)   // ok: unmarked field
	freshEngine().offers = []int{1, 2} // want `write to frozen field offers after publication`
}

// freshEngine may fill its own frozen field while the value is fresh.
func freshEngine() *engine {
	e := &engine{}
	e.offers = append(e.offers, 1) // ok: fresh
	return e
}

// methodWrite: the receiver of a method on a frozen type is published.
func (p *plan) methodWrite() {
	p.off[0] = 1 // want `write to field off of frozen \*plan after publication`
}

// loopAlias rebinds a loop-local alias on every iteration: the rebinding
// is not a write; only a write through it is.
func (e *engine) loopAlias() int {
	sum := 0
	for i := range e.offers {
		d := &e.offers[i] // ok: rebinds d, writes nothing
		sum += *d
	}
	for i := range e.offers {
		d := &e.offers[i]
		*d = 0 // want `write through d, an alias of published frozen state`
	}
	return sum
}
