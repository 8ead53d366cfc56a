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
// All policies index membership with a dense ID window (see window.go)
// instead of hash maps, exploiting the monotone slice IDs the simulator
// guarantees, and their instances are recycled through Recycle so the
// simulation hot loop runs allocation-free.
package drop

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/stream"
)

// Policy selects victims on server-buffer overflow. Implementations keep an
// internal index of droppable slices; all methods are called from a single
// goroutine by the simulator. Add must be called in non-decreasing slice-ID
// order (the simulator's arrival order), which is what lets the policies use
// dense windows instead of hash maps.
type Policy interface {
	// Name returns a short human-readable policy name.
	Name() string
	// Add registers a slice that has entered the server buffer and is
	// droppable.
	Add(s stream.Slice)
	// Remove unregisters a slice that left the droppable set without
	// being chosen as a victim: it either started transmission or was
	// fully sent within the step it arrived. Removing an unknown or
	// already-removed ID is a no-op.
	Remove(id int)
	// Victim removes and returns the next slice to drop. ok is false if
	// no droppable slice remains.
	Victim() (s stream.Slice, ok bool)
	// Len returns the number of droppable slices currently registered.
	Len() int
	// Reset clears all state so the policy can be reused for a new run.
	Reset()
}

// Factory builds a fresh Policy instance. Simulations take a Factory so
// that concurrent or repeated runs never share mutable policy state.
type Factory func() Policy

// Recycle returns a policy obtained from one of this package's constructors
// to its free pool, so the next constructor call reuses its grown backing
// arrays instead of allocating. The caller must not touch the policy after
// recycling it. Policies of foreign types are ignored.
//
// Only the simulation driver that created a policy (and knows its lifetime
// ended) may recycle it; core.Runner does so at the end of every run.
func Recycle(p Policy) {
	switch p := p.(type) {
	case *tailDrop:
		tailPool.Put(p)
	case *headDrop:
		headPool.Put(p)
	case *greedy:
		greedyPool.Put(p)
	case *random:
		randomPool.Put(p)
	case *anticipate:
		anticipatePool.Put(p)
	case *randomMix:
		randomMixPool.Put(p)
	}
}

var (
	tailPool       = sync.Pool{New: func() any { return new(tailDrop) }}
	headPool       = sync.Pool{New: func() any { return new(headDrop) }}
	greedyPool     = sync.Pool{New: func() any { return new(greedy) }}
	randomPool     = sync.Pool{New: func() any { return new(random) }}
	anticipatePool = sync.Pool{New: func() any { return new(anticipate) }}
	randomMixPool  = sync.Pool{New: func() any { return new(randomMix) }}
)

// ---------------------------------------------------------------------------
// TailDrop
// ---------------------------------------------------------------------------

// tailDrop drops the newest slice first. Because the simulator adds slices
// in arrival order, a stack with lazy deletion gives O(1) amortized victims.
type tailDrop struct {
	stack []int
	w     window
}

// NewTailDrop returns a policy that discards the most recently arrived
// droppable slice first.
func NewTailDrop() Policy {
	p := tailPool.Get().(*tailDrop)
	p.Reset()
	return p
}

// TailDrop is the Factory for NewTailDrop.
func TailDrop() Policy { return NewTailDrop() }

func (p *tailDrop) Name() string { return "taildrop" }

//smoothvet:noalloc
func (p *tailDrop) Add(s stream.Slice) {
	p.w.add(s)
	p.stack = append(p.stack, s.ID)
}

//smoothvet:noalloc
func (p *tailDrop) Remove(id int) { p.w.remove(id) }

//smoothvet:noalloc
func (p *tailDrop) Victim() (stream.Slice, bool) {
	for len(p.stack) > 0 {
		id := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		if s, ok := p.w.get(id); ok {
			p.w.remove(id)
			return s, true
		}
	}
	return stream.Slice{}, false
}

func (p *tailDrop) Len() int { return p.w.len() }

//smoothvet:noalloc
func (p *tailDrop) Reset() {
	p.stack = p.stack[:0]
	p.w.reset()
}

// ---------------------------------------------------------------------------
// HeadDrop
// ---------------------------------------------------------------------------

// headDrop drops the oldest droppable slice first. The victim order needs
// no auxiliary queue at all: slices are added in ID order, so the oldest
// droppable slice is exactly the window's head entry, by construction.
type headDrop struct {
	w window
}

// NewHeadDrop returns a policy that discards the oldest droppable slice
// first (drop-from-front).
func NewHeadDrop() Policy {
	p := headPool.Get().(*headDrop)
	p.Reset()
	return p
}

// HeadDrop is the Factory for NewHeadDrop.
func HeadDrop() Policy { return NewHeadDrop() }

func (p *headDrop) Name() string { return "headdrop" }

//smoothvet:noalloc
func (p *headDrop) Add(s stream.Slice) { p.w.add(s) }

//smoothvet:noalloc
func (p *headDrop) Remove(id int) { p.w.remove(id) }

//smoothvet:noalloc
func (p *headDrop) Victim() (stream.Slice, bool) {
	s, ok := p.w.first()
	if !ok {
		return stream.Slice{}, false
	}
	p.w.remove(s.ID)
	return s, true
}

func (p *headDrop) Len() int { return p.w.len() }

//smoothvet:noalloc
func (p *headDrop) Reset() { p.w.reset() }

// ---------------------------------------------------------------------------
// Greedy
// ---------------------------------------------------------------------------

// greedyRun is one item of the min-heap behind the greedy policy: the
// consecutive slice IDs first..end-1, which all have one byte value. In the
// byte-slice model a frame is such a run, so a frame costs one heap push
// and its slices leave from the newest down. The heap orders runs by lowest
// byte value first; ties are broken toward the newest slice (largest ID),
// matching the tail-drop intuition that newer data has had less invested in
// it. The paper allows arbitrary tie-breaking.
type greedyRun struct {
	first, end int
	byteValue  float64
}

// greedyHeap is a hand-rolled min-heap rather than a container/heap
// implementation: heap.Push/Pop box every item into an interface, which
// costs one allocation per operation in the simulator's hot path. The
// direct methods below are allocation-free, and push reuses the backing
// array truncated by shrink and Reset.
type greedyHeap []greedyRun

func (h greedyHeap) less(i, j int) bool {
	if h[i].byteValue != h[j].byteValue {
		return h[i].byteValue < h[j].byteValue
	}
	return h[i].end > h[j].end
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

// shrink takes the newest ID off the minimum run, removes the run once it
// is empty, and restores the heap invariant (sift-down). The backing array
// is retained for reuse.
func (h *greedyHeap) shrink() {
	s := *h
	if s[0].end--; s[0].end == s[0].first {
		s[0] = s[len(s)-1]
		s = s[:len(s)-1]
		*h = s
	}
	for i, n := 0, len(s); ; {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && s.less(left, smallest) {
			smallest = left
		}
		if right < n && s.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
}

// greedy drops the slice with the lowest byte value w(s)/|s| first
// (Section 4.1), via a min-heap of ID runs with lazy deletion. The run
// being built by consecutive Adds is staged outside the heap, because
// growing a run that is already in the heap would change its key.
type greedy struct {
	h     greedyHeap
	stage greedyRun // empty when first == end
	w     window
}

// NewGreedy returns the greedy policy of Section 4.1: on overflow, discard
// the droppable slice with the lowest byte value.
func NewGreedy() Policy {
	p := greedyPool.Get().(*greedy)
	p.Reset()
	return p
}

// Greedy is the Factory for NewGreedy.
func Greedy() Policy { return NewGreedy() }

func (p *greedy) Name() string { return "greedy" }

//smoothvet:noalloc
func (p *greedy) Add(s stream.Slice) {
	p.w.add(s)
	bv := s.ByteValue()
	if p.stage.first < p.stage.end && s.ID == p.stage.end && bv == p.stage.byteValue {
		p.stage.end++
		return
	}
	p.flush()
	p.stage = greedyRun{first: s.ID, end: s.ID + 1, byteValue: bv}
}

// flush moves the staged run into the heap.
//
//smoothvet:noalloc
func (p *greedy) flush() {
	if p.stage.first < p.stage.end {
		p.h.push(p.stage)
		p.stage = greedyRun{}
	}
}

//smoothvet:noalloc
func (p *greedy) Remove(id int) { p.w.remove(id) }

//smoothvet:noalloc
func (p *greedy) Victim() (stream.Slice, bool) {
	s, ok := p.peek()
	if ok {
		p.w.remove(s.ID)
		p.h.shrink()
	}
	return s, ok
}

// peek returns the live minimum-byte-value slice without removing it,
// discarding stale heap entries along the way.
//
//smoothvet:noalloc
func (p *greedy) peek() (stream.Slice, bool) {
	p.flush()
	for len(p.h) > 0 {
		if s, ok := p.w.get(p.h[0].end - 1); ok {
			return s, true
		}
		p.h.shrink()
	}
	return stream.Slice{}, false
}

func (p *greedy) Len() int { return p.w.len() }

//smoothvet:noalloc
func (p *greedy) Reset() {
	p.h = p.h[:0]
	p.stage = greedyRun{}
	p.w.reset()
}

// ---------------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------------

// random drops a uniformly random droppable slice, using a swap-delete
// vector plus the window's aux payload as the id->position index.
type random struct {
	rng  *rand.Rand
	seed int64
	name string
	ids  []int
	w    window
}

// NewRandom returns a policy that discards a uniformly random droppable
// slice, driven by a deterministic source seeded with seed.
func NewRandom(seed int64) Policy {
	p := randomPool.Get().(*random)
	p.setSeed(seed)
	p.Reset()
	return p
}

// Random returns a Factory producing NewRandom(seed) policies.
func Random(seed int64) Factory {
	return func() Policy { return NewRandom(seed) }
}

// setSeed (re)parameterizes a pooled instance, rebuilding the cached name
// only when the seed actually changed.
func (p *random) setSeed(seed int64) {
	if p.name == "" || p.seed != seed {
		p.name = fmt.Sprintf("random(seed=%d)", seed)
	}
	p.seed = seed
}

func (p *random) Name() string { return p.name }

//smoothvet:noalloc
func (p *random) Add(s stream.Slice) {
	if _, ok := p.w.get(s.ID); ok {
		return
	}
	p.w.add(s)
	p.w.setAux(s.ID, int32(len(p.ids)))
	p.ids = append(p.ids, s.ID)
}

//smoothvet:noalloc
func (p *random) Remove(id int) {
	aux, ok := p.w.auxOf(id)
	if !ok {
		return
	}
	i, last := int(aux), len(p.ids)-1
	p.ids[i] = p.ids[last]
	p.w.setAux(p.ids[i], aux)
	p.ids = p.ids[:last]
	p.w.remove(id)
}

//smoothvet:noalloc
func (p *random) Victim() (stream.Slice, bool) {
	if len(p.ids) == 0 {
		return stream.Slice{}, false
	}
	id := p.ids[p.rng.Intn(len(p.ids))]
	s, _ := p.w.get(id)
	p.Remove(id)
	return s, true
}

func (p *random) Len() int { return len(p.ids) }

//smoothvet:noalloc
func (p *random) Reset() {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.seed))
	} else {
		// Reseeding restores exactly the state of a fresh source without
		// reallocating it (rand.NewSource seeds the same way).
		p.rng.Seed(p.seed)
	}
	p.ids = p.ids[:0]
	p.w.reset()
}
