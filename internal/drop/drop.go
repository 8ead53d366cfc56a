// Package drop implements the slice-discard policies used by the server of
// the generic smoothing algorithm. The generic algorithm (Section 3 of the
// paper) intentionally under-specifies which slices to drop on overflow;
// this package supplies the choices studied in the paper:
//
//   - TailDrop: discard the most recently arrived slices first ("slices from
//     frame i are discarded" on an overflow at time i) — the FIFO/Tail-Drop
//     baseline of Section 5;
//   - Greedy: discard the slices with the lowest byte value w(s)/|s| first —
//     the 4-competitive algorithm of Section 4.1;
//   - HeadDrop: discard the oldest droppable slices first;
//   - Random: discard uniformly random droppable slices (deterministic seed).
//
// A policy tracks the set of "droppable" slices currently in the server
// buffer: slices that have not yet started transmission (no preemption) and
// have not been dropped. The simulator notifies the policy as slices enter
// the buffer, start transmission, or finish; when an overflow occurs it
// repeatedly asks for a victim until the buffer fits.
//
// Policies work on ID ranges: the simulator adds whole runs of slices (see
// stream.Run) and takes victims back as runs, so a byte-sliced frame costs
// one Add and one Victim however many slices it holds. Membership is a
// presence bitmap over the live ID span (see window.go), and instances are
// recycled through Recycle so the simulation hot loop runs allocation-free.
package drop

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/freelist"
	"repro/internal/stream"
)

// Policy selects victims on server-buffer overflow. Implementations keep an
// index of droppable slice IDs; all methods are called from a single
// goroutine by the simulator. Each added run must start at or above the end
// of the previous one (the simulator's arrival order).
type Policy interface {
	// Name returns a short human-readable policy name.
	Name() string
	// Add registers a run of slices that has entered the server buffer
	// and is droppable.
	Add(r stream.Run)
	// Remove unregisters the IDs in [first, end) that left the droppable
	// set without being chosen as victims: they started transmission or
	// were discarded as late. Unknown or already-removed IDs are skipped.
	Remove(first, end int)
	// Victim removes and returns the next slices to drop, given that the
	// buffer holds over > 0 bytes too many. The victims are consecutive
	// IDs of one run, at most ceil(over/size) of them (only the policy
	// knows the victim's size), chosen exactly as that many single-slice
	// victims would be; the caller asks again while it is still over.
	// ok is false if no droppable slice remains.
	Victim(over int) (r stream.Run, ok bool)
	// Len returns the number of droppable slices currently registered.
	Len() int
	// Reset clears all state so the policy can be reused for a new run.
	Reset()
}

// Factory builds a fresh Policy instance. Simulations take a Factory so
// that concurrent or repeated runs never share mutable policy state.
type Factory func() Policy

// Recycle returns a policy obtained from one of this package's constructors
// to its free list, so the next constructor call reuses its grown backing
// arrays instead of allocating. The caller must not touch the policy after
// recycling it. Policies of foreign types are ignored.
//
// Only the simulation driver that created a policy (and knows its lifetime
// ended) may recycle it; core.Runner does so at the end of every run.
func Recycle(p Policy) {
	switch p := p.(type) {
	case *edgeDrop:
		edgeFree.Put(p)
	case *greedy:
		greedyFree.Put(p)
	case *random:
		p.releaseTape()
		randomFree.Put(p)
	case *anticipate:
		anticipateFree.Put(p)
	case *randomMix:
		p.r.releaseTape()
		randomMixFree.Put(p)
	}
}

// Clone returns a copy of p that continues from p's current state, apart
// from p: core.Runner forks a run with it. The copy reuses into's backing
// arrays when into has p's type, and recycles into otherwise; into may be
// nil, and must not be p. A random policy and its copies share one draw
// tape (see tape), so they must draw on one goroutine. Clone fails, naming
// p, for any policy but tail-drop, head-drop, greedy, random and the
// random mix.
func Clone(p, into Policy) (Policy, error) {
	switch p := p.(type) {
	case *edgeDrop:
		c, ok := into.(*edgeDrop)
		if !ok {
			Recycle(into)
			c = edgeFree.Get(func() *edgeDrop { return new(edgeDrop) })
		}
		c.w.copyFrom(&p.w)
		c.newest = p.newest
		return c, nil
	case *greedy:
		c, ok := into.(*greedy)
		if !ok {
			Recycle(into)
			c = greedyFree.Get(func() *greedy { return new(greedy) })
		}
		c.copyFrom(p)
		return c, nil
	case *random:
		c, ok := into.(*random)
		if !ok {
			Recycle(into)
			c = randomFree.Get(newRandom)
		}
		c.copyFrom(p)
		return c, nil
	case *randomMix:
		c, ok := into.(*randomMix)
		if !ok {
			Recycle(into)
			c = randomMixFree.Get(newRandomMix)
		}
		c.g.copyFrom(p.g)
		c.r.copyFrom(p.r)
		c.prob = p.prob
		return c, nil
	}
	return nil, fmt.Errorf("drop: policy %s cannot be cloned", p.Name())
}

// The free lists behind Recycle, one per policy type.
var (
	edgeFree       freelist.List[edgeDrop]
	greedyFree     freelist.List[greedy]
	randomFree     freelist.List[random]
	anticipateFree freelist.List[anticipate]
	randomMixFree  freelist.List[randomMix]
)

// newRandom returns a random policy with no tape; setSeed gives it one.
func newRandom() *random {
	p := new(random)
	p.rng = rand.New(&p.cur)
	return p
}

// ---------------------------------------------------------------------------
// TailDrop and HeadDrop
// ---------------------------------------------------------------------------

// edgeDrop drops from one end of the droppable set: the newest live ID and
// the live IDs just below it in its run (tail drop), or the oldest live ID
// and the live IDs just above it (head drop).
type edgeDrop struct {
	w      window
	newest bool
}

// TailDrop returns a policy that discards the most recently arrived
// droppable slice first.
func TailDrop() Policy { return newEdgeDrop(true) }

// HeadDrop returns a policy that discards the oldest droppable slice first
// (drop-from-front).
func HeadDrop() Policy { return newEdgeDrop(false) }

func newEdgeDrop(newest bool) Policy {
	p := edgeFree.Get(func() *edgeDrop { return new(edgeDrop) })
	p.Reset()
	p.newest = newest
	return p
}

func (p *edgeDrop) Name() string {
	if p.newest {
		return "taildrop"
	}
	return "headdrop"
}

//smoothvet:noalloc
func (p *edgeDrop) Add(r stream.Run) { p.w.add(r) }

//smoothvet:noalloc
func (p *edgeDrop) Remove(first, end int) { p.w.remove(first, end) }

//smoothvet:noalloc
func (p *edgeDrop) Victim(over int) (stream.Run, bool) {
	switch {
	case p.w.len() == 0:
		return stream.Run{}, false
	case p.newest:
		hi := p.w.newest()
		return p.w.takeDown(p.w.runOf(hi), hi, over), true
	}
	lo := p.w.oldest()
	return p.w.takeUp(p.w.runOf(lo), lo, over), true
}

func (p *edgeDrop) Len() int { return p.w.len() }

//smoothvet:noalloc
func (p *edgeDrop) Reset() { p.w.reset() }

// ---------------------------------------------------------------------------
// Greedy
// ---------------------------------------------------------------------------

// valueStack holds the added runs of one byte value (from any size and
// weight), newest on top, linked top down through greedy's pool.
type valueStack struct {
	value float64
	top   int32 // pool index; the stack is empty below the pool's head
}

// stackRun is a pool entry: a run and the pool index of the run below it.
type stackRun struct {
	stream.Run
	below int32
}

// greedy drops the slice with the lowest byte value w(s)/|s| first
// (Section 4.1). It keeps one stack of added runs per distinct byte value,
// lowest value last (Add scans from there, past only the values that have
// runs on a stack), so a byte-sliced frame is one entry and the victim is
// the newest live slice of the last stack's top run: ties go to the newest
// slice, matching the tail-drop intuition that newer data has had less
// invested in it (the paper allows arbitrary tie-breaking). The pool holds
// the runs in ID order, and Remove trims the ones below the oldest live ID
// off its front; a run that left the droppable set otherwise stays on its
// stack until it surfaces on top. No stack is empty.
type greedy struct {
	stacks []valueStack
	pool   []stackRun
	head   int // pool[:head] are trimmed
	w      window
}

// Greedy returns the greedy policy of Section 4.1: on overflow, discard
// the droppable slice with the lowest byte value.
func Greedy() Policy {
	p := greedyFree.Get(func() *greedy { return new(greedy) })
	p.Reset()
	return p
}

func (p *greedy) Name() string { return "greedy" }

//smoothvet:noalloc
func (p *greedy) Add(r stream.Run) {
	if p.w.add(r); r.Count <= 0 {
		return
	}
	i, v := len(p.stacks), r.ByteValue()
	for i > 0 && p.stacks[i-1].value <= v {
		i--
	}
	if i == len(p.stacks) || p.stacks[i].value != v {
		p.stacks = slices.Insert(p.stacks, i, valueStack{value: v, top: -1})
	}
	p.pool = append(p.pool, stackRun{Run: r, below: p.stacks[i].top})
	p.stacks[i].top = int32(len(p.pool) - 1)
}

// Remove trims the runs below the oldest live ID (all, once none is live).
//
//smoothvet:noalloc
func (p *greedy) Remove(first, end int) {
	p.w.remove(first, end)
	oldest, h := p.w.end, p.head
	if p.w.len() > 0 {
		oldest = p.w.oldest()
	}
	for h < len(p.pool) && p.pool[h].End() <= oldest {
		h++
	}
	if h == p.head {
		return
	}
	live := p.stacks[:0]
	for _, s := range p.stacks {
		if s.top >= int32(h) {
			live = append(live, s)
		}
	}
	p.stacks, p.head = live, h
	if 2*h >= len(p.pool) {
		p.pool = p.pool[:copy(p.pool, p.pool[h:])]
		p.shift(h)
	}
}

// shift moves every link down by h once the pool has lost its first h runs.
func (p *greedy) shift(h int) {
	for i := range p.pool {
		p.pool[i].below -= int32(h)
	}
	for i := range p.stacks {
		p.stacks[i].top -= int32(h)
	}
	p.head = 0
}

//smoothvet:noalloc
func (p *greedy) Victim(over int) (stream.Run, bool) {
	hi, ok := p.peek()
	if !ok {
		return stream.Run{}, false
	}
	top := &p.pool[p.stacks[len(p.stacks)-1].top]
	v := p.w.takeDown(top.Run, hi, over)
	top.Count = v.First - top.First
	return v, true
}

// peek pops dead runs (and emptied stacks) off the lowest stack and
// returns the newest live ID of its top run.
//
//smoothvet:noalloc
func (p *greedy) peek() (int, bool) {
	for k := len(p.stacks) - 1; k >= 0; k = len(p.stacks) - 1 {
		s := &p.stacks[k]
		top := p.pool[s.top]
		if hi := p.w.last(top.First, top.End(), true); hi >= top.First {
			return hi, true
		}
		if s.top = top.below; s.top < int32(p.head) {
			p.stacks = p.stacks[:k]
		}
	}
	return 0, false
}

func (p *greedy) Len() int { return p.w.len() }

// copyFrom makes p a copy of src, less its trimmed runs, in p's arrays.
func (p *greedy) copyFrom(src *greedy) {
	p.stacks = append(p.stacks[:0], src.stacks...)
	p.pool = append(p.pool[:0], src.pool[src.head:]...)
	p.shift(src.head)
	p.w.copyFrom(&src.w)
}

//smoothvet:noalloc
func (p *greedy) Reset() {
	p.stacks, p.pool, p.head = p.stacks[:0], p.pool[:0], 0
	p.w.reset()
}

// ---------------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------------

// random drops a uniformly random droppable slice, one at a time, using a
// swap-delete vector of live IDs plus pos, the id->position index, over the
// live ID span.
type random struct {
	// rng draws through cur from a tape of seed's draws (see tape). The
	// tape is seeded at its first draw and then only extended: Reset
	// rewinds the cursor and a clone shares the tape, so neither pays for
	// seeding, which costs about as much as a short run, again.
	rng  *rand.Rand
	cur  cursor
	seed int64
	// name caches Name for nameSeed: a random mix never asks for it.
	name     string
	nameSeed int64
	ids      []int
	// pos[id-posBase] is the index of id in ids plus one; 0 = absent.
	pos     []int32
	posBase int
	w       window
}

// NewRandom returns a policy that discards a uniformly random droppable
// slice, driven by a deterministic source seeded with seed.
func NewRandom(seed int64) Policy {
	p := randomFree.Get(newRandom)
	p.setSeed(seed)
	p.Reset()
	return p
}

// Random returns a Factory producing NewRandom(seed) policies.
func Random(seed int64) Factory {
	return func() Policy { return NewRandom(seed) }
}

// setSeed (re)parameterizes a recycled instance, which has no tape: it
// reads a tape of seed's draws from the start.
func (p *random) setSeed(seed int64) {
	p.seed = seed
	p.cur = cursor{t: acquireTape(seed)}
}

// releaseTape detaches the policy from its tape, on its way to a free list
// or to another tape.
func (p *random) releaseTape() {
	if p.cur.t != nil {
		p.cur.t.release()
		p.cur.t = nil
	}
}

func (p *random) Name() string {
	if p.name == "" || p.nameSeed != p.seed {
		p.name, p.nameSeed = fmt.Sprintf("random(seed=%d)", p.seed), p.seed
	}
	return p.name
}

//smoothvet:noalloc
func (p *random) Add(r stream.Run) {
	p.w.add(r)
	if len(p.ids) == 0 {
		p.posBase, p.pos = r.First, p.pos[:0]
	} else if d := p.w.oldest() - p.posBase; d > 64 && d > len(p.pos)/2 {
		// Compact the dead prefix of the index.
		p.pos = p.pos[:copy(p.pos, p.pos[d:])]
		p.posBase += d
	}
	for len(p.pos) < r.End()-p.posBase {
		p.pos = append(p.pos, 0)
	}
	for id := r.First; id < r.End(); id++ {
		p.ids = append(p.ids, id)
		p.pos[id-p.posBase] = int32(len(p.ids))
	}
}

//smoothvet:noalloc
func (p *random) Remove(first, end int) {
	first = max(first, p.posBase)
	end = min(end, p.posBase+len(p.pos))
	for id := first; id < end; id++ {
		at := p.pos[id-p.posBase]
		if at == 0 {
			continue
		}
		last := len(p.ids) - 1
		moved := p.ids[last]
		p.ids[at-1] = moved
		p.pos[moved-p.posBase] = at
		p.ids = p.ids[:last]
		p.pos[id-p.posBase] = 0
	}
	p.w.remove(first, end)
}

//smoothvet:noalloc
func (p *random) Victim(int) (stream.Run, bool) {
	if len(p.ids) == 0 {
		return stream.Run{}, false
	}
	id := p.ids[p.rng.Intn(len(p.ids))]
	v := p.w.runOf(id)
	p.Remove(id, id+1)
	v.First, v.Count = id, 1
	return v, true
}

func (p *random) Len() int { return len(p.ids) }

// copyFrom makes p a copy of src in p's own backing arrays, reading src's
// tape from src's position.
func (p *random) copyFrom(src *random) {
	if p.cur.t != src.cur.t {
		p.releaseTape()
		src.cur.t.refs.Add(1)
	}
	p.cur = src.cur
	p.seed, p.name, p.nameSeed = src.seed, src.name, src.nameSeed
	p.ids = append(p.ids[:0], src.ids...)
	p.pos = append(p.pos[:0], src.pos...)
	p.posBase = src.posBase
	p.w.copyFrom(&src.w)
}

//smoothvet:noalloc
func (p *random) Reset() {
	p.cur.i = 0
	p.ids = p.ids[:0]
	p.pos = p.pos[:0]
	p.w.reset()
}
