package linksim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/stream"
)

func randomStream(rng *rand.Rand) *stream.Stream {
	b := stream.NewBuilder()
	n := rng.Intn(25) + 1
	for i := 0; i < n; i++ {
		b.Add(rng.Intn(12), rng.Intn(3)+1, float64(rng.Intn(10)+1))
	}
	return b.MustBuild()
}

func TestJitterLinkDelivery(t *testing.T) {
	l, err := NewJitterLink(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.Push(0, []core.Batch{{SliceID: 1, Bytes: 3}})
	if got := l.Pop(0); len(got) != 0 {
		t.Errorf("delivered at step 0 with delay 2: %v", got)
	}
	if got := l.Pop(2); len(got) != 1 || got[0].SliceID != 1 || got[0].SentAt != 0 {
		t.Errorf("Pop(2) = %v", got)
	}
	if !l.Empty() {
		t.Error("link not empty after delivery")
	}
}

func TestJitterLinkBounds(t *testing.T) {
	const (
		P = 1
		J = 3
	)
	l, err := NewJitterLink(P, J, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Push one batch per step; each must arrive within [P, P+J] of its
	// send step.
	for s := 0; s < 50; s++ {
		l.Push(s, []core.Batch{{SliceID: s, Bytes: 1}})
	}
	got := map[int]int{} // slice -> arrival
	for t2 := 0; t2 < 60; t2++ {
		for _, b := range l.Pop(t2) {
			got[b.SliceID] = t2
		}
	}
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50 batches", len(got))
	}
	for s, at := range got {
		if at < s+P || at > s+P+J {
			t.Errorf("batch %d arrived at %d, window [%d, %d]", s, at, s+P, s+P+J)
		}
	}
}

func TestJitterLinkErrors(t *testing.T) {
	if _, err := NewJitterLink(-1, 0, 1); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := NewJitterLink(0, -1, 1); err == nil {
		t.Error("negative jitter accepted")
	}
}

func TestRegulatorConstantDelay(t *testing.T) {
	r := NewRegulator(5)
	r.Offer(3, []Timestamped{{Batch: core.Batch{SliceID: 1, Bytes: 2}, SentAt: 0}})
	if got := r.Release(4); len(got) != 0 {
		t.Errorf("released early: %v", got)
	}
	if got := r.Release(5); len(got) != 1 || got[0].SliceID != 1 {
		t.Errorf("Release(5) = %v", got)
	}
	if !r.Empty() {
		t.Error("regulator not empty")
	}
	if r.MaxOccupancy() != 2 {
		t.Errorf("max occupancy = %d, want 2", r.MaxOccupancy())
	}
}

func TestRegulatorLateBatchReleasedImmediately(t *testing.T) {
	r := NewRegulator(2)
	// Arrives at step 10 but was sent at 0 (release due at 2): released
	// at the now step.
	r.Offer(10, []Timestamped{{Batch: core.Batch{SliceID: 9, Bytes: 1}, SentAt: 0}})
	if got := r.Release(10); len(got) != 1 {
		t.Errorf("late batch not released at now: %v", got)
	}
}

// TestRegulatedEqualsConstantLink — the headline property: generic run over
// a jittery link with a regulator is identical to a run over a constant
// P+J link.
func TestRegulatedEqualsConstantLink(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStream(rng)
		P := rng.Intn(3)
		J := rng.Intn(4)
		rate := rng.Intn(3) + 1
		B := rate * (rng.Intn(5) + st.MaxSliceSize())
		cfg := core.Config{ServerBuffer: B, Rate: rate, LinkDelay: P}

		jittered, _, err := Simulate(core.NewRunner(), st, cfg, J, seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := jittered.Validate(); err != nil {
			t.Logf("seed %d: regulated schedule invalid: %v", seed, err)
			return false
		}
		plain := cfg
		plain.LinkDelay = P + J
		want, err := core.Simulate(st, plain)
		if err != nil {
			return false
		}
		if len(jittered.Outcomes) != len(want.Outcomes) {
			return false
		}
		for i := range want.Outcomes {
			if jittered.Outcomes[i] != want.Outcomes[i] {
				t.Logf("seed %d: outcome %d differs: %+v vs %+v",
					seed, i, jittered.Outcomes[i], want.Outcomes[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestRegulatorOccupancyBounded(t *testing.T) {
	// The regulator never holds more than R*(J+1) bytes (bytes of at
	// most J+1 send steps can await release simultaneously).
	rng := rand.New(rand.NewSource(3))
	st := randomStream(rng)
	const (
		R = 3
		J = 4
	)
	_, occ, err := Simulate(core.NewRunner(), st, core.Config{ServerBuffer: 3 * R, Rate: R}, J, 5)
	if err != nil {
		t.Fatal(err)
	}
	if occ > R*(J+1) {
		t.Errorf("regulator occupancy %d exceeds R*(J+1) = %d", occ, R*(J+1))
	}
}

// TestUnregulatedJitterHurts — without jitter control, jitter causes
// lateness loss that the regulated system does not suffer.
func TestUnregulatedJitterHurts(t *testing.T) {
	// A steady stream at exactly the link rate; any positive jitter makes
	// some bytes late for the naive client.
	b := stream.NewBuilder()
	for i := 0; i < 60; i++ {
		b.Add(i, 2, 2)
	}
	st := b.MustBuild()
	cfg := core.Config{ServerBuffer: 4, Rate: 2, LinkDelay: 1}

	res, err := SimulateUnregulated(core.NewRunner(), st, cfg, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedLate == 0 {
		t.Error("expected late drops from unregulated jitter")
	}
	if res.Played+res.DroppedServer+res.DroppedLate != st.Len() {
		t.Errorf("outcome counts do not add up: %+v vs %d slices", res, st.Len())
	}

	// The regulated run plays everything.
	sch, _, err := Simulate(core.NewRunner(), st, cfg, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if sch.DroppedSlices() != 0 {
		t.Errorf("regulated run dropped %d slices", sch.DroppedSlices())
	}
}

func TestUnregulatedZeroJitterMatchesPlain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStream(rng)
		rate := rng.Intn(3) + 1
		B := rate * (rng.Intn(4) + st.MaxSliceSize())
		cfg := core.Config{ServerBuffer: B, Rate: rate, LinkDelay: rng.Intn(3)}
		res, err := SimulateUnregulated(core.NewRunner(), st, cfg, 0, seed)
		if err != nil {
			return false
		}
		plain, err := core.Simulate(st, cfg)
		if err != nil {
			return false
		}
		played := 0
		for _, o := range plain.Outcomes {
			if o.Played() {
				played += o.Len()
			}
		}
		return res.Played == played
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSimulateErrors(t *testing.T) {
	st := stream.NewBuilder().Add(0, 1, 1).MustBuild()
	if _, _, err := Simulate(core.NewRunner(), st, core.Config{ServerBuffer: 1, Rate: 1}, -1, 1); err == nil {
		t.Error("negative jitter accepted")
	}
	if _, err := SimulateUnregulated(core.NewRunner(), st, core.Config{ServerBuffer: 1, Rate: 1}, -1, 1); err == nil {
		t.Error("negative jitter accepted (unregulated)")
	}
	if _, _, err := Simulate(core.NewRunner(), st, core.Config{ServerBuffer: 0, Rate: 1}, 0, 1); err == nil {
		t.Error("invalid config accepted")
	}
}
