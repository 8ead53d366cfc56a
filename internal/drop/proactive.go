package drop

import (
	"math"

	"repro/internal/stream"
)

// EarlyDropper is an optional extension of Policy. The paper's generic
// algorithm only discards on overflow; Section 6 raises "more pro-active
// algorithms for overflows" as an open problem. A policy implementing
// EarlyDropper is additionally consulted by the server at the start of
// every step, before transmission admits a new slice to the (unpreemptable)
// head of the queue.
//
// Why proactivity can help at all: dropping early can never improve which
// *set* of slices fits the buffer (the overflow-time greedy choice already
// keeps the most valuable fit), but it can prevent a low-value slice from
// reaching the head and *starting transmission* — after which the
// no-preemption rule protects it even when far more valuable data arrives
// one step later, wasting link capacity on cheap bytes.
type EarlyDropper interface {
	Policy
	// EarlyVictim may return slices to discard proactively given the
	// current occupancy and capacity: consecutive IDs of one run, like
	// Victim. It is called repeatedly until ok == false. The returned
	// slices must currently be droppable; the policy must unregister
	// them, exactly like Victim.
	EarlyVictim(occupancy, capacity int) (r stream.Run, ok bool)
}

// EarlyOf returns p's EarlyDropper extension, or nil if it has none. It
// tells this package's policies apart by their concrete types: an
// assertion to an interface type goes through a per-call-site runtime
// cache that is built lazily, at a random one of its first thousand or so
// misses, so it would allocate at an unpredictable run. A foreign Policy
// falls back to that assertion.
func EarlyOf(p Policy) EarlyDropper {
	switch p := p.(type) {
	case *anticipate:
		return p
	case *edgeDrop, *greedy, *random, *randomMix:
		return nil
	}
	ed, _ := p.(EarlyDropper)
	return ed
}

// anticipate wraps the greedy policy with a threshold rule: whenever the
// buffer is more than threshold-full, slices whose byte value is below
// valueFloor are discarded proactively (lowest first), before they can
// commence transmission.
type anticipate struct {
	*greedy
	threshold  float64
	valueFloor float64
}

// NewAnticipate returns a proactive greedy policy: on overflow it behaves
// exactly like Greedy; additionally, while occupancy exceeds
// threshold*capacity, it sheds droppable slices with byte value below
// valueFloor, lowest value first.
//
// threshold is clamped to [0, 1]. valueFloor <= 0 disables the value
// filter (any lowest-value slice may be shed early).
func NewAnticipate(threshold, valueFloor float64) Policy {
	p := anticipateFree.Get(func() *anticipate { return &anticipate{greedy: new(greedy)} })
	p.greedy.Reset()
	p.threshold, p.valueFloor = min(max(threshold, 0), 1), valueFloor
	return p
}

// Anticipate returns a Factory for NewAnticipate.
func Anticipate(threshold, valueFloor float64) Factory {
	return func() Policy { return NewAnticipate(threshold, valueFloor) }
}

func (p *anticipate) Name() string { return "anticipate" }

// randomMix randomizes between the greedy victim and a uniformly random
// one. Theorem 4.8's 1.2287 lower bound holds only for DETERMINISTIC
// online algorithms; a randomized policy denies the adversary knowledge of
// when the last low-value slice departs, so against an oblivious adversary
// its expected competitive ratio can differ from any deterministic
// policy's. The "onlinelb" experiment measures exactly that. The coin is
// drawn from the random policy's own source, per victim slice.
type randomMix struct {
	g    *greedy
	r    *random
	prob float64
}

// NewRandomMix returns a policy that, on each overflow victim decision,
// picks a uniformly random droppable slice with probability p and the
// greedy (lowest byte value) one otherwise. Deterministic per seed.
func NewRandomMix(seed int64, p float64) Policy {
	m := randomMixFree.Get(newRandomMix)
	m.r.setSeed(seed)
	m.Reset()
	m.prob = min(max(p, 0), 1)
	return m
}

func newRandomMix() *randomMix { return &randomMix{g: new(greedy), r: newRandom()} }

// RandomMix returns a Factory for NewRandomMix.
func RandomMix(seed int64, p float64) Factory {
	return func() Policy { return NewRandomMix(seed, p) }
}

func (p *randomMix) Name() string { return "randommix" }

func (p *randomMix) Add(r stream.Run) {
	p.g.Add(r)
	p.r.Add(r)
}

func (p *randomMix) Remove(first, end int) {
	p.g.Remove(first, end)
	p.r.Remove(first, end)
}

// Victim returns a single slice: every victim slice tosses its own coin.
func (p *randomMix) Victim(int) (stream.Run, bool) {
	from, other := Policy(p.g), Policy(p.r)
	if p.r.rng.Float64() < p.prob {
		from, other = other, from
	}
	v, ok := from.Victim(1)
	if ok {
		other.Remove(v.First, v.End())
	}
	return v, ok
}

func (p *randomMix) Len() int { return p.g.Len() }

func (p *randomMix) Reset() {
	p.g.Reset()
	p.r.Reset()
}

// EarlyVictim sheds the cheapest droppable slices while occupancy exceeds
// threshold*capacity, as many as single-slice shedding would take from the
// cheapest run in one go.
func (p *anticipate) EarlyVictim(occupancy, capacity int) (stream.Run, bool) {
	limit := p.threshold * float64(capacity)
	if float64(occupancy) <= limit {
		return stream.Run{}, false
	}
	// Peek at the cheapest droppable slice; only shed it if it is below
	// the value floor (when a floor is configured).
	if _, ok := p.peek(); !ok || p.valueFloor > 0 && p.stacks[len(p.stacks)-1].value >= p.valueFloor {
		return stream.Run{}, false
	}
	// Occupancy is an integer, so it exceeds limit exactly while it
	// exceeds floor(limit).
	return p.Victim(occupancy - int(math.Floor(limit)))
}
