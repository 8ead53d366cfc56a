package drop

import (
	"math/rand"
	"sync/atomic"

	"repro/internal/freelist"
)

// tape records the draws of one math/rand source. It is seeded once, at the
// first draw any reader asks for (most runs never overflow, so most tapes
// are never seeded), and extended as readers run ahead of it. A random
// policy and its clones (see Clone) read one tape through cursors of their
// own: a clone draws exactly what the policy it was copied from would have
// drawn next, and Reset rewinds a cursor instead of reseeding the source.
//
// A tape's readers must draw on one goroutine. refs counts them, and the
// last one to leave hands the tape back to tapeFree; it is atomic because
// the arenas holding a policy and its clone may be recycled on different
// goroutines once they are done drawing.
type tape struct {
	src    rand.Source
	seed   int64
	seeded bool // src has been seeded with seed and draws holds its output
	draws  []int64
	refs   atomic.Int32
}

var tapeFree freelist.List[tape]

func newTape() *tape { return &tape{src: rand.NewSource(0)} }

// acquireTape returns a tape of seed's draws with one reader. A recycled
// tape of the same seed keeps the draws it has: they are the same ones.
func acquireTape(seed int64) *tape {
	t := tapeFree.Get(newTape)
	if t.seed != seed {
		t.seed, t.seeded, t.draws = seed, false, t.draws[:0]
	}
	t.refs.Store(1)
	return t
}

// release drops one reader, recycling the tape when it was the last.
func (t *tape) release() {
	if t.refs.Add(-1) == 0 {
		tapeFree.Put(t)
	}
}

// cursor reads a tape from position i on. It is the rand.Source under a
// random policy's rand.Rand, so Intn and Float64 consume exactly the
// values a source seeded with the tape's seed would have produced.
type cursor struct {
	t *tape
	i int
}

//smoothvet:noalloc
func (c *cursor) Int63() int64 {
	t := c.t
	if c.i == len(t.draws) {
		if !t.seeded {
			// Seeding restores exactly the state of a fresh source
			// (rand.NewSource seeds the same way) without reallocating it.
			t.src.Seed(t.seed)
			t.seeded = true
		}
		t.draws = append(t.draws, t.src.Int63())
	}
	v := t.draws[c.i]
	c.i++
	return v
}

// Seed is never called: a tape is seeded once, with its own seed.
func (c *cursor) Seed(int64) { panic("drop: a draw tape cannot be reseeded") }
