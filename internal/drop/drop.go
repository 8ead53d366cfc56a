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

// greedyRun is one item of the min-heap behind the greedy policy: an added
// run, whose slices all have one byte value, so a byte-sliced frame costs
// one heap push and its slices leave from the newest down. The heap orders
// runs by lowest byte value first; ties are broken toward the newest slice
// (largest end), matching the tail-drop intuition that newer data has had
// less invested in it (the paper allows arbitrary tie-breaking). Runs are
// disjoint, so this is the per-slice order "lowest byte value, then largest
// ID".
type greedyRun struct {
	stream.Run
	byteValue float64
}

// greedyHeap is a hand-rolled min-heap rather than a container/heap
// implementation: heap.Push/Pop box every item into an interface, which
// costs one allocation per operation in the simulator's hot path. The
// direct methods below are allocation-free, and push reuses the backing
// array truncated by pop and Reset.
type greedyHeap []greedyRun

func (h greedyHeap) less(i, j int) bool {
	if h[i].byteValue != h[j].byteValue {
		return h[i].byteValue < h[j].byteValue
	}
	return h[i].End() > h[j].End()
}

// push inserts a run and restores the heap invariant (sift-up).
func (h *greedyHeap) push(r greedyRun) {
	*h = append(*h, r)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes the minimum run and restores the heap invariant.
func (h *greedyHeap) pop() {
	s := *h
	s[0] = s[len(s)-1]
	*h = s[:len(s)-1]
	h.down(0)
}

// down restores the heap invariant below i after i's key grew (sift-down).
func (h greedyHeap) down(i int) {
	for n := len(h); ; {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(left, smallest) {
			smallest = left
		}
		if right < n && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// greedy drops the slice with the lowest byte value w(s)/|s| first
// (Section 4.1), via a min-heap of added runs with lazy deletion: a run's
// removed IDs stay in the heap until they surface.
type greedy struct {
	h greedyHeap
	w window
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
	p.w.add(r)
	if r.Count > 0 {
		p.h.push(greedyRun{Run: r, byteValue: r.ByteValue()})
	}
}

//smoothvet:noalloc
func (p *greedy) Remove(first, end int) { p.w.remove(first, end) }

//smoothvet:noalloc
func (p *greedy) Victim(over int) (stream.Run, bool) {
	hi, ok := p.peek()
	if !ok {
		return stream.Run{}, false
	}
	top := &p.h[0]
	v := p.w.takeDown(top.Run, hi, over)
	if top.Count = v.First - top.First; top.Count == 0 {
		p.h.pop()
	} else {
		p.h.down(0)
	}
	return v, true
}

// peek discards exhausted runs from the top of the heap and returns the
// newest live ID of the minimum run, p.h[0].
//
//smoothvet:noalloc
func (p *greedy) peek() (int, bool) {
	for len(p.h) > 0 {
		top := p.h[0]
		if hi := p.w.last(top.First, top.End(), true); hi >= top.First {
			return hi, true
		}
		p.h.pop()
	}
	return 0, false
}

func (p *greedy) Len() int { return p.w.len() }

// copyFrom makes p a copy of src in p's own backing arrays.
func (p *greedy) copyFrom(src *greedy) {
	p.h = append(p.h[:0], src.h...)
	p.w.copyFrom(&src.w)
}

//smoothvet:noalloc
func (p *greedy) Reset() {
	p.h = p.h[:0]
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
