package core_test

// Property tests for the paper's internal lemmas, checked directly against
// recorded schedules.

import (
	"math/rand"
	"testing"
	"testing/quick"

	. "repro/internal/core" // dot-import: external test package avoids the core<->offline test cycle
	"repro/internal/drop"
	"repro/internal/sched"
)

// TestLemma32 — no byte is submitted to the link more than B/R steps after
// its arrival, and the server buffer requirement is at most B.
func TestLemma32SendWithinBOverR(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStream(rng, 3)
		R := rng.Intn(3) + 1
		B := R * (rng.Intn(6) + st.MaxSliceSize())
		s, err := Simulate(st, Config{ServerBuffer: B, Rate: R})
		if err != nil {
			return false
		}
		D := s.Params.Delay // = ceil(B/R)
		for id := 0; id < s.Stream.Len(); id++ {
			o := s.At(id)
			if o.SendEnd == sched.None {
				continue
			}
			if o.SendEnd > st.Slice(id).Arrival+D {
				t.Logf("seed %d: slice %d sent at %d, arrival %d, bound +%d",
					seed, id, o.SendEnd, st.Slice(id).Arrival, D)
				return false
			}
		}
		return s.ServerBufferRequirement() <= B
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLemma33 — every byte of a non-dropped slice is received in the window
// [arrival+P, arrival+P+B/R].
func TestLemma33ReceiveWindow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStream(rng, 3)
		R := rng.Intn(3) + 1
		B := R * (rng.Intn(5) + st.MaxSliceSize())
		P := rng.Intn(4)
		s, err := Simulate(st, Config{ServerBuffer: B, Rate: R, LinkDelay: P})
		if err != nil {
			return false
		}
		D := s.Params.Delay
		for id := 0; id < s.Stream.Len(); id++ {
			o := s.At(id)
			if !o.Played() {
				continue
			}
			a := st.Slice(id).Arrival
			rt0 := o.SendStart + P // first byte received
			rt1 := o.SendEnd + P   // last byte received
			if rt0 < a+P || rt1 > a+P+D {
				t.Logf("seed %d: slice %d received [%d,%d], window [%d,%d]",
					seed, id, rt0, rt1, a+P, a+P+D)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLemma44 — under the greedy policy, the value stored in the buffer at
// any step is at most the value transmitted during the following D steps.
func TestLemma44BufferValueBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := unitStreamW(rng, rng.Intn(60)+1, rng.Intn(12)+1, 50)
		R := rng.Intn(3) + 1
		D := rng.Intn(5) + 1
		B := R * D
		s, err := Simulate(st, Config{ServerBuffer: B, Rate: R, Delay: D, Policy: drop.Greedy})
		if err != nil {
			return false
		}
		// Reconstruct per-step buffer value and sent value from outcomes.
		T := len(s.SentPerStep)
		bufVal := make([]float64, T)  // value of w(Bs(t))
		sentVal := make([]float64, T) // value of w(S(t))
		for id := 0; id < s.Stream.Len(); id++ {
			o := s.At(id)
			sl := st.Slice(id)
			switch {
			case o.Played():
				// Unit slices: SendStart == SendEnd.
				sentVal[o.SendStart] += sl.Weight
				for t2 := sl.Arrival; t2 < o.SendStart; t2++ {
					bufVal[t2] += sl.Weight
				}
			case o.DropSite == sched.SiteServer:
				for t2 := sl.Arrival; t2 < o.DropTime; t2++ {
					bufVal[t2] += sl.Weight
				}
			}
		}
		for t2 := 0; t2 < T; t2++ {
			var next float64
			for i := t2 + 1; i <= t2+D && i < T; i++ {
				next += sentVal[i]
			}
			if bufVal[t2] > next+1e-9 {
				t.Logf("seed %d: step %d buffer value %v > next-%d-steps sent value %v",
					seed, t2, bufVal[t2], D, next)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLemma31 — the generic server transmits cumulatively at least as much
// as any other schedule with the same buffer and rate: compare against the
// offline-optimal accepted set replayed work-conservingly and against
// randomized alternative schedules.
func TestLemma31GreedyServerDominates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := unitStreamW(rng, rng.Intn(40)+1, rng.Intn(10)+1, 1)
		R := rng.Intn(3) + 1
		B := R * (rng.Intn(5) + 1)
		s, err := Simulate(st, Config{ServerBuffer: B, Rate: R})
		if err != nil {
			return false
		}
		cum := s.CumulativeSent()
		// Alternative: a schedule that randomly drops some arrivals
		// up-front and sends work-conservingly. Its cumulative sends must
		// never exceed the generic algorithm's.
		occ := 0
		var alt int64
		for t2 := 0; t2 < len(cum); t2++ {
			for _, sl := range st.ArrivalsAt(t2) {
				if rng.Intn(3) > 0 { // accept ~2/3
					occ += sl.Size
				}
			}
			send := occ
			if send > R {
				send = R
			}
			occ -= send
			if occ > B {
				occ = B // drop overflow
			}
			alt += int64(send)
			if alt > cum[t2] {
				t.Logf("seed %d: alternative sent %d > generic %d by step %d", seed, alt, cum[t2], t2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestNoPreemptionInvariant — once a slice's first byte is sent, the slice
// is always fully sent (never dropped), for every policy.
func TestNoPreemptionInvariant(t *testing.T) {
	factories := []drop.Factory{drop.TailDrop, drop.HeadDrop, drop.Greedy, drop.Random(3), drop.Anticipate(0.5, 2)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStream(rng, 4)
		R := rng.Intn(3) + 1
		B := R * (rng.Intn(4) + st.MaxSliceSize())
		for _, factory := range factories {
			s, err := Simulate(st, Config{ServerBuffer: B, Rate: R, Policy: factory})
			if err != nil {
				return false
			}
			for id := 0; id < s.Stream.Len(); id++ {
				o := s.At(id)
				if o.SendStart != sched.None && o.SendEnd == sched.None {
					t.Logf("seed %d: slice %d started but never finished", seed, id)
					return false
				}
				if o.DropSite == sched.SiteServer && o.SendStart != sched.None {
					t.Logf("seed %d: slice %d preempted", seed, id)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAnticipateNeverInvalid — the proactive policy keeps schedules legal
// and cannot beat the exact offline optimum.
func TestAnticipateBoundedByOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := unitStreamW(rng, rng.Intn(40)+1, rng.Intn(10)+1, 20)
		R := rng.Intn(3) + 1
		B := R * (rng.Intn(5) + 1)
		s, err := Simulate(st, Config{ServerBuffer: B, Rate: R, Policy: drop.Anticipate(0.6, 5)})
		if err != nil {
			return false
		}
		if err := s.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		opt, err := optimalUnitBenefit(st, B, R)
		if err != nil {
			return false
		}
		return s.Benefit() <= opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
