package offline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScheduleForProducesValidOptimalSchedule(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := varStream(rng, rng.Intn(15)+1, rng.Intn(8)+1, 3, 20)
		B := rng.Intn(8) + st.MaxSliceSize()
		R := rng.Intn(3) + 1
		res, err := OptimalFrames(st, B, R)
		if err != nil {
			return false
		}
		s, err := ScheduleFor(st, res, B, R)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := s.Validate(); err != nil {
			t.Logf("seed %d: invalid optimal schedule: %v", seed, err)
			return false
		}
		if math.Abs(s.Benefit()-res.Benefit) > 1e-9 {
			t.Logf("seed %d: schedule benefit %v != result %v", seed, s.Benefit(), res.Benefit)
			return false
		}
		// Every outcome's fate matches the accepted set.
		for id := 0; id < s.Stream.Len(); id++ {
			o := s.At(id)
			if o.Played() != res.Accepted[id] {
				t.Logf("seed %d: slice %d fate mismatch", seed, id)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestScheduleForRejectsTamperedResult(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st := unitStream(rng, 15, 5, 10)
	res, err := OptimalUnit(st, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := *res
	bad.Benefit += 5
	if _, err := ScheduleFor(st, &bad, 3, 1); err == nil {
		t.Error("tampered result accepted")
	}
}

func TestScheduleForEmptyAcceptance(t *testing.T) {
	// A stream whose only slice cannot fit: the optimal accepts nothing.
	st := unitStream(rand.New(rand.NewSource(1)), 5, 2, 3)
	res := &Result{Accepted: make([]bool, st.Len())}
	s, err := ScheduleFor(st, res, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("all-drop schedule invalid: %v", err)
	}
	if s.Benefit() != 0 || s.DroppedSlices() != st.Len() {
		t.Errorf("all-drop schedule metrics wrong: %v, %d", s.Benefit(), s.DroppedSlices())
	}
}
