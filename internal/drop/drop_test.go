package drop

import (
	"slices"
	"testing"

	"repro/internal/stream"
)

// slice returns a one-slice run.
func slice(id, arrival, size int, weight float64) stream.Run {
	return stream.Run{First: id, Count: 1, Arrival: arrival, Size: size, Weight: weight}
}

// drain pulls single-slice victims until exhaustion and returns their IDs
// in order.
func drain(p Policy) []int {
	var ids []int
	for {
		s, ok := p.Victim(1)
		if !ok {
			return ids
		}
		ids = append(ids, s.First)
	}
}

func TestTailDropOrder(t *testing.T) {
	p := TailDrop()
	p.Add(slice(0, 0, 1, 1))
	p.Add(slice(1, 1, 1, 1))
	p.Add(slice(2, 2, 1, 1))
	got := drain(p)
	want := []int{2, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("taildrop order = %v, want %v", got, want)
		}
	}
}

func TestHeadDropOrder(t *testing.T) {
	p := HeadDrop()
	for i := 0; i < 5; i++ {
		p.Add(slice(i, i, 1, 1))
	}
	got := drain(p)
	for i, id := range got {
		if id != i {
			t.Fatalf("headdrop order = %v, want ascending", got)
		}
	}
}

func TestGreedyOrderByByteValue(t *testing.T) {
	p := Greedy()
	p.Add(slice(0, 0, 2, 8)) // byte value 4
	p.Add(slice(1, 0, 1, 1)) // byte value 1
	p.Add(slice(2, 0, 4, 8)) // byte value 2
	got := drain(p)
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("greedy order = %v, want %v", got, want)
		}
	}
}

func TestGreedyTieBreaksToNewest(t *testing.T) {
	p := Greedy()
	p.Add(slice(3, 0, 1, 5))
	p.Add(slice(7, 1, 1, 5))
	if s, _ := p.Victim(1); s.First != 7 {
		t.Errorf("greedy tie victim = %d, want 7 (newest)", s.First)
	}
}

func TestRemovePreventsVictim(t *testing.T) {
	policies := map[string]Policy{
		"taildrop": TailDrop(),
		"headdrop": HeadDrop(),
		"greedy":   Greedy(),
		"random":   NewRandom(1),
	}
	for name, p := range policies {
		t.Run(name, func(t *testing.T) {
			p.Add(slice(0, 0, 1, 1))
			p.Add(slice(1, 0, 1, 2))
			p.Remove(1, 2)
			if p.Len() != 1 {
				t.Errorf("Len = %d after remove, want 1", p.Len())
			}
			s, ok := p.Victim(1)
			if !ok || s.First != 0 {
				t.Errorf("victim = %v/%v, want slice 0", s.First, ok)
			}
			if _, ok := p.Victim(1); ok {
				t.Error("victim available after all removed")
			}
		})
	}
}

func TestRemoveUnknownIsNoop(t *testing.T) {
	for _, p := range []Policy{TailDrop(), HeadDrop(), Greedy(), NewRandom(1)} {
		p.Remove(42, 43)
		p.Add(slice(1, 0, 1, 1))
		p.Remove(99, 100)
		if p.Len() != 1 {
			t.Errorf("%s: Len = %d, want 1", p.Name(), p.Len())
		}
	}
}

func TestVictimOnEmpty(t *testing.T) {
	for _, p := range []Policy{TailDrop(), HeadDrop(), Greedy(), NewRandom(1)} {
		if _, ok := p.Victim(1); ok {
			t.Errorf("%s: victim from empty policy", p.Name())
		}
	}
}

func TestReset(t *testing.T) {
	for _, p := range []Policy{TailDrop(), HeadDrop(), Greedy(), NewRandom(1)} {
		p.Add(slice(0, 0, 1, 1))
		p.Reset()
		if p.Len() != 0 {
			t.Errorf("%s: Len = %d after reset", p.Name(), p.Len())
		}
		if _, ok := p.Victim(1); ok {
			t.Errorf("%s: victim after reset", p.Name())
		}
		// Reusable after reset.
		p.Add(slice(5, 0, 1, 1))
		if s, ok := p.Victim(1); !ok || s.First != 5 {
			t.Errorf("%s: not reusable after reset", p.Name())
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	run := func() []int {
		p := NewRandom(42)
		for i := 0; i < 10; i++ {
			p.Add(slice(i, i, 1, 1))
		}
		return drain(p)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random policy not deterministic: %v vs %v", a, b)
		}
	}
}

func TestRandomCoversAll(t *testing.T) {
	p := NewRandom(7)
	for i := 0; i < 20; i++ {
		p.Add(slice(i, i, 1, 1))
	}
	got := drain(p)
	if len(got) != 20 {
		t.Fatalf("random drained %d victims, want 20", len(got))
	}
	seen := make(map[int]bool)
	for _, id := range got {
		if seen[id] {
			t.Fatalf("random returned %d twice", id)
		}
		seen[id] = true
	}
}

// TestAddRequiresIncreasingIDs pins the Add contract: a run that starts
// below the end of an earlier run is a driver bug and panics, for every
// policy, rather than corrupting the index.
func TestAddRequiresIncreasingIDs(t *testing.T) {
	for _, p := range []Policy{TailDrop(), HeadDrop(), Greedy(), NewRandom(1)} {
		p.Add(stream.Run{First: 0, Count: 3, Size: 1, Weight: 1})
		p.Remove(0, 3)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: re-adding ID 2 did not panic", p.Name())
				}
			}()
			p.Add(slice(2, 0, 1, 1))
		}()
	}
}

// TestRandomResetSeedsLazily checks that a policy seeds its draw tape at
// the first victim, not before, and that Reset rewinds the tape without
// changing the victim sequence: a policy reset twice with no victim in
// between draws exactly what a fresh one draws.
func TestRandomResetSeedsLazily(t *testing.T) {
	fill := func(p Policy) Policy {
		p.Add(stream.Run{First: 0, Count: 40, Size: 1, Weight: 1})
		return p
	}
	want := drain(fill(NewRandom(9)))
	p := NewRandom(9)
	drain(fill(p)) // advance the cursor
	if !p.(*random).cur.t.seeded {
		t.Fatal("victims drawn from an unseeded source")
	}
	p.Reset()
	p.Reset()
	if got := drain(fill(p)); !slices.Equal(got, want) {
		t.Fatalf("after two Resets: %v, fresh policy: %v", got, want)
	}
	if fresh := NewRandom(123457).(*random); fresh.cur.t.seeded {
		t.Error("a new seed's tape was seeded before its first draw")
	}
}

// TestVictimRuns checks that one Victim call takes as many consecutive
// slices of one run as the excess needs, from the end each policy drops
// from, and stops at a hole.
func TestVictimRuns(t *testing.T) {
	frame := stream.Run{First: 10, Count: 8, Arrival: 1, Size: 3, Weight: 6}
	cases := []struct {
		p     Policy
		over  int
		first int
		count int
	}{
		{TailDrop(), 7, 15, 3},     // ceil(7/3) newest
		{HeadDrop(), 4, 10, 2},     // ceil(4/3) oldest
		{Greedy(), 100, 13, 5},     // the newest, down to the hole at 12
		{HeadDrop(), 100, 10, 2},   // the oldest, up to the hole at 12
		{NewRandom(1), 100, -1, 1}, // always one slice
	}
	for _, c := range cases {
		c.p.Add(frame)
		c.p.Remove(12, 13)
		v, ok := c.p.Victim(c.over)
		if !ok || v.Count != c.count || (c.first >= 0 && v.First != c.first) ||
			v.Size != 3 || v.Weight != 6 || v.Arrival != 1 {
			t.Errorf("%s: Victim(%d) = %+v, want %d slices from %d", c.p.Name(), c.over, v, c.count, c.first)
		}
		if c.p.Len() != 7-c.count {
			t.Errorf("%s: Len %d after taking %d of 7", c.p.Name(), c.p.Len(), c.count)
		}
	}
}

func TestHeadDropCompaction(t *testing.T) {
	// Exercise the compaction path: add and drain many slices.
	p := HeadDrop()
	for i := 0; i < 500; i++ {
		p.Add(slice(i, i, 1, 1))
	}
	for i := 0; i < 300; i++ {
		s, ok := p.Victim(1)
		if !ok || s.First != i {
			t.Fatalf("victim %d = %v/%v", i, s.First, ok)
		}
	}
	for i := 500; i < 600; i++ {
		p.Add(slice(i, i, 1, 1))
	}
	prev := -1
	for {
		s, ok := p.Victim(1)
		if !ok {
			break
		}
		if s.First <= prev {
			t.Fatalf("headdrop order violated after compaction: %d after %d", s.First, prev)
		}
		prev = s.First
	}
	if p.Len() != 0 {
		t.Errorf("Len = %d after full drain", p.Len())
	}
}

func TestFactories(t *testing.T) {
	// Factories must return independent instances.
	f := Random(3)
	a, b := f(), f()
	a.Add(slice(0, 0, 1, 1))
	if b.Len() != 0 {
		t.Error("factory instances share state")
	}
	if TailDrop().Name() != "taildrop" || HeadDrop().Name() != "headdrop" || Greedy().Name() != "greedy" {
		t.Error("unexpected policy names")
	}
}

func TestAnticipateActsAsGreedyOnOverflow(t *testing.T) {
	p := NewAnticipate(1.0, 0) // threshold 1: never proactive
	p.Add(slice(0, 0, 2, 8))
	p.Add(slice(1, 0, 1, 1))
	p.Add(slice(2, 0, 4, 8))
	got := drain(p)
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("anticipate greedy order = %v, want %v", got, want)
		}
	}
}

func TestAnticipateEarlyVictim(t *testing.T) {
	p := NewAnticipate(0.5, 3).(EarlyDropper)
	p.Add(slice(0, 0, 2, 2))  // byte value 1: below floor
	p.Add(slice(1, 0, 2, 10)) // byte value 5: above floor
	// Occupancy 4 of capacity 10: below half — no early drop.
	if _, ok := p.EarlyVictim(4, 10); ok {
		t.Error("early victim below threshold")
	}
	// Occupancy 8 of 10: above half — shed the low-value slice only.
	s, ok := p.EarlyVictim(8, 10)
	if !ok || s.First != 0 {
		t.Fatalf("early victim = %v/%v, want slice 0", s.First, ok)
	}
	if _, ok := p.EarlyVictim(8, 10); ok {
		t.Error("early victim above the value floor was shed")
	}
	// The remaining slice is still droppable on real overflow.
	if s, ok := p.Victim(1); !ok || s.First != 1 {
		t.Errorf("overflow victim = %v/%v, want slice 1", s.First, ok)
	}
}

func TestAnticipateNoFloorShedsAnything(t *testing.T) {
	p := NewAnticipate(0, 0).(EarlyDropper)
	p.Add(slice(0, 0, 1, 100))
	if s, ok := p.EarlyVictim(1, 10); !ok || s.First != 0 {
		t.Errorf("floorless anticipate refused to shed: %v/%v", s.First, ok)
	}
	if _, ok := p.EarlyVictim(0, 10); ok {
		t.Error("early victim from empty occupancy 0... policy should be empty")
	}
}

func TestAnticipateThresholdClamped(t *testing.T) {
	// Out-of-range thresholds are clamped rather than rejected.
	for _, th := range []float64{-1, 2} {
		p := NewAnticipate(th, 0)
		p.Add(slice(0, 0, 1, 1))
		if p.Len() != 1 {
			t.Errorf("threshold %v: policy unusable", th)
		}
	}
}

func TestAnticipatePeekSkipsStale(t *testing.T) {
	p := NewAnticipate(0, 0).(EarlyDropper)
	p.Add(slice(0, 0, 1, 1))
	p.Add(slice(1, 0, 1, 2))
	p.Remove(0, 1) // stale heap top
	s, ok := p.EarlyVictim(5, 10)
	if !ok || s.First != 1 {
		t.Errorf("early victim = %v/%v, want live slice 1", s.First, ok)
	}
}

func TestRandomMixDeterministicPerSeed(t *testing.T) {
	runOnce := func() []int {
		p := NewRandomMix(5, 0.5)
		for i := 0; i < 12; i++ {
			p.Add(slice(i, i, 1, float64(i%4+1)))
		}
		return drain(p)
	}
	a, b := runOnce(), runOnce()
	if len(a) != 12 || len(b) != 12 {
		t.Fatalf("drain lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("randommix not deterministic per seed: %v vs %v", a, b)
		}
	}
}

func TestRandomMixExtremes(t *testing.T) {
	// p=0 behaves exactly like greedy.
	g := Greedy()
	m := NewRandomMix(1, 0)
	for i, w := range []float64{5, 1, 9, 7} {
		g.Add(slice(i, 0, 1, w))
		m.Add(slice(i, 0, 1, w))
	}
	got, want := drain(m), drain(g)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("p=0 mix diverged from greedy: %v vs %v", got, want)
		}
	}
	// p=1 drains everything (uniform choice) without duplicates.
	m = NewRandomMix(2, 1)
	for i := 0; i < 8; i++ {
		m.Add(slice(i, 0, 1, 1))
	}
	seen := map[int]bool{}
	for _, id := range drain(m) {
		if seen[id] {
			t.Fatalf("duplicate victim %d", id)
		}
		seen[id] = true
	}
	if len(seen) != 8 {
		t.Fatalf("drained %d of 8", len(seen))
	}
}

func TestRandomMixBothIndexesConsistent(t *testing.T) {
	p := NewRandomMix(3, 0.5)
	p.Add(slice(0, 0, 1, 1))
	p.Add(slice(1, 0, 1, 2))
	p.Remove(0, 1)
	if p.Len() != 1 {
		t.Errorf("Len = %d after remove", p.Len())
	}
	s, ok := p.Victim(1)
	if !ok || s.First != 1 {
		t.Errorf("victim = %v/%v", s.First, ok)
	}
	if _, ok := p.Victim(1); ok {
		t.Error("victim from empty mix")
	}
	p.Reset()
	p.Add(slice(7, 0, 1, 1))
	if s, ok := p.Victim(1); !ok || s.First != 7 {
		t.Error("mix unusable after reset")
	}
}

func TestRandomMixClampsProbability(t *testing.T) {
	for _, pr := range []float64{-0.5, 1.5} {
		p := NewRandomMix(1, pr)
		p.Add(slice(0, 0, 1, 1))
		if _, ok := p.Victim(1); !ok {
			t.Errorf("p=%v: unusable", pr)
		}
	}
}

func TestExtraFactoriesAndNames(t *testing.T) {
	if Anticipate(0.5, 1)().Name() != "anticipate" {
		t.Error("anticipate factory/name wrong")
	}
	if RandomMix(1, 0.5)().Name() != "randommix" {
		t.Error("randommix factory/name wrong")
	}
	if NewRandom(9).Name() == "" {
		t.Error("random name empty")
	}
	// Factory instances are independent.
	f := Anticipate(0.5, 1)
	a, b := f(), f()
	a.Add(slice(0, 0, 1, 1))
	if b.Len() != 0 {
		t.Error("anticipate factory shares state")
	}
}
