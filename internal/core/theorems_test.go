package core_test

// Integration tests that check the paper's theorems hold for the actual
// implementations: the generic algorithm (this package) against the exact
// offline optima (package offline).

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	. "repro/internal/core" // dot-import: external test package avoids the core<->offline test cycle
	"repro/internal/drop"
	"repro/internal/offline"
	"repro/internal/stream"
	"repro/internal/trace"
)

// unitStreamW builds a random unit-slice stream with random weights.
func unitStreamW(rng *rand.Rand, n, horizon, maxW int) *stream.Stream {
	b := stream.NewBuilder()
	for i := 0; i < n; i++ {
		b.Add(rng.Intn(horizon), 1, float64(rng.Intn(maxW)+1))
	}
	return b.MustBuild()
}

// TestTheorem35 — with unit slices and B = R·D, the generic algorithm loses
// the minimum possible number of slices regardless of the drop policy.
func TestTheorem35GenericOptimalForUnitSlices(t *testing.T) {
	factories := []drop.Factory{drop.TailDrop, drop.HeadDrop, drop.Greedy, drop.Random(7)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Unit slices with weight 1: benefit == number of slices played.
		st := unitStreamW(rng, rng.Intn(40)+1, rng.Intn(10)+1, 1)
		R := rng.Intn(3) + 1
		B := R * (rng.Intn(6) + 1)
		opt, err := offline.OptimalUnit(st, B, R)
		if err != nil {
			return false
		}
		for _, factory := range factories {
			s, err := Simulate(st, Config{ServerBuffer: B, Rate: R, Policy: factory})
			if err != nil {
				return false
			}
			played := 0
			for _, o := range s.Outcomes {
				if o.Played() {
					played += o.Len()
				}
			}
			if float64(played) != opt.Benefit {
				t.Logf("seed %d policy %s: generic played %d, optimal %v (B=%d R=%d)",
					seed, s.Algorithm, played, opt.Benefit, B, R)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestTheorem39 — with variable slice sizes in [1, Lmax], the generic
// algorithm's throughput is at least (B-Lmax+1)/B of the best possible.
func TestTheorem39VariableSizeBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := stream.NewBuilder()
		n := rng.Intn(25) + 1
		maxSize := rng.Intn(3) + 2
		for i := 0; i < n; i++ {
			size := rng.Intn(maxSize) + 1
			b.Add(rng.Intn(8), size, float64(size)) // weight = size: benefit = throughput
		}
		st := b.MustBuild()
		R := rng.Intn(3) + 1
		B := R * (rng.Intn(5) + 1)
		if B < st.MaxSliceSize() {
			B = ((st.MaxSliceSize() + R - 1) / R) * R
		}
		opt, err := offline.OptimalFrames(st, B, R)
		if err != nil {
			return false
		}
		s, err := Simulate(st, Config{ServerBuffer: B, Rate: R})
		if err != nil {
			return false
		}
		bound := float64(B-st.MaxSliceSize()+1) / float64(B) * opt.Benefit
		if float64(s.Throughput()) < bound-1e-9 {
			t.Logf("seed %d: throughput %d below bound %v (opt %v, B=%d Lmax=%d R=%d)",
				seed, s.Throughput(), bound, opt.Benefit, B, st.MaxSliceSize(), R)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestLemma36 — for unit slices, a server with buffer B1 <= B2 achieves at
// least B1/B2 of the larger buffer's throughput.
func TestLemma36BufferScaling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := unitStreamW(rng, rng.Intn(50)+1, rng.Intn(12)+1, 1)
		R := rng.Intn(3) + 1
		B1 := R * (rng.Intn(4) + 1)
		B2 := B1 + R*(rng.Intn(4))
		s1, err := Simulate(st, Config{ServerBuffer: B1, Rate: R})
		if err != nil {
			return false
		}
		s2, err := Simulate(st, Config{ServerBuffer: B2, Rate: R})
		if err != nil {
			return false
		}
		t1 := float64(s1.Throughput())
		t2 := float64(s2.Throughput())
		return t1 >= float64(B1)/float64(B2)*t2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestLemma36Tightness — the batch pattern from the paper (bursts of B2
// slices every B2 steps) makes the bound tight.
func TestLemma36Tightness(t *testing.T) {
	const (
		B1, B2 = 2, 6
		R      = 1
		rounds = 10
	)
	b := stream.NewBuilder()
	for k := 0; k < rounds; k++ {
		for i := 0; i < B2; i++ {
			b.Add(k*B2, 1, 1)
		}
	}
	st := b.MustBuild()
	s1, err := Simulate(st, Config{ServerBuffer: B1, Rate: R})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Simulate(st, Config{ServerBuffer: B2, Rate: R})
	if err != nil {
		t.Fatal(err)
	}
	// Each round: S2 keeps all B2 (sends 1 immediately, stores... accepts
	// all and drains exactly by the next burst); S1 accepts B1+... the
	// paper: S1 loses B2-B1-... — verify the *ratio* approaches B1'/B2'
	// in the adjusted sense: both send at full rate; what matters here is
	// the measured ratio equals the bound within one round's slack.
	ratio := float64(s1.Throughput()) / float64(s2.Throughput())
	wantAtMost := float64(B1+R) / float64(B2) // S1 salvages B1 stored + R sent per round
	if ratio > wantAtMost+1e-9 {
		t.Errorf("ratio = %v, want <= %v (tight pattern)", ratio, wantAtMost)
	}
	if s2.DroppedSlices() != 0 {
		t.Errorf("large buffer dropped %d slices on the tight pattern", s2.DroppedSlices())
	}
}

// TestTheorem41 — the greedy policy is 4B/(B-2(Lmax-1))-competitive. For
// unit slices this is the plain factor 4.
func TestTheorem41GreedyCompetitiveUnit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := unitStreamW(rng, rng.Intn(40)+1, rng.Intn(10)+1, 50)
		R := rng.Intn(3) + 1
		B := R * (rng.Intn(6) + 1)
		opt, err := offline.OptimalUnit(st, B, R)
		if err != nil {
			return false
		}
		s, err := Simulate(st, Config{ServerBuffer: B, Rate: R, Policy: drop.Greedy})
		if err != nil {
			return false
		}
		if s.Benefit() == 0 {
			return opt.Benefit == 0
		}
		return opt.Benefit/s.Benefit() <= 4+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTheorem41GreedyCompetitiveVariable — general slice sizes against the
// refined bound 4B/(B-2(Lmax-1)).
func TestTheorem41GreedyCompetitiveVariable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := stream.NewBuilder()
		n := rng.Intn(20) + 1
		maxSize := rng.Intn(2) + 2
		for i := 0; i < n; i++ {
			b.Add(rng.Intn(8), rng.Intn(maxSize)+1, float64(rng.Intn(50)+1))
		}
		st := b.MustBuild()
		R := rng.Intn(2) + 1
		// Ensure B > 2(Lmax-1) so the bound is meaningful.
		Lmax := st.MaxSliceSize()
		B := R * (2*Lmax + rng.Intn(5))
		opt, err := offline.OptimalFrames(st, B, R)
		if err != nil {
			return false
		}
		s, err := Simulate(st, Config{ServerBuffer: B, Rate: R, Policy: drop.Greedy})
		if err != nil {
			return false
		}
		if s.Benefit() == 0 {
			return opt.Benefit == 0
		}
		bound := 4 * float64(B) / float64(B-2*(Lmax-1))
		if opt.Benefit/s.Benefit() > bound+1e-9 {
			t.Logf("seed %d: ratio %v > bound %v (B=%d Lmax=%d R=%d)",
				seed, opt.Benefit/s.Benefit(), bound, B, Lmax, R)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSection33 — the observations about B != R·D: increasing B beyond R·D
// never helps; at B = R·D loss is minimized.
func TestSection33NoGainBeyondLaw(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := unitStreamW(rng, rng.Intn(40)+1, rng.Intn(10)+1, 1)
		R := rng.Intn(3) + 1
		D := rng.Intn(5) + 1
		lawful, err := Simulate(st, Config{ServerBuffer: R * D, Rate: R, Delay: D})
		if err != nil {
			return false
		}
		// A bigger server buffer with the same delay cannot reduce loss:
		// slices beyond R*D in the buffer would miss their deadline anyway.
		bigger, err := Simulate(st, Config{
			ServerBuffer: R*D + R*(rng.Intn(3)+1),
			ClientBuffer: R * D,
			Rate:         R,
			Delay:        D,
		})
		if err != nil {
			return false
		}
		return bigger.Throughput() <= lawful.Throughput()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGreedyNeverWorseThanBoundOnAdversarial — the Theorem 4.7 instance:
// greedy achieves exactly benefit (B+1)(1+alpha) while the optimum gets
// 1 + alpha(2B+1).
func TestTheorem47InstanceExactValues(t *testing.T) {
	const (
		B     = 6
		alpha = 5.0
	)
	b := stream.NewBuilder()
	for i := 0; i < B+1; i++ {
		b.Add(0, 1, 1)
	}
	for t2 := 1; t2 <= B; t2++ {
		b.Add(t2, 1, alpha)
	}
	for i := 0; i < B+1; i++ {
		b.Add(B+1, 1, alpha)
	}
	st := b.MustBuild()

	s, err := Simulate(st, Config{ServerBuffer: B, Rate: 1, Policy: drop.Greedy})
	if err != nil {
		t.Fatal(err)
	}
	// Greedy: it must drop one value-1 slice at step 0 (B+1 arrive, 1 is
	// sent, B stay), then loses B value-alpha slices at step B+1.
	wantGreedy := float64(B)*1 + 1 + alpha*(B+1)
	if math.Abs(s.Benefit()-wantGreedy) > 1e-9 {
		t.Errorf("greedy benefit = %v, want %v", s.Benefit(), wantGreedy)
	}

	opt, err := offline.OptimalUnit(st, B, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantOpt := 1 + alpha*(2*B+1)
	if math.Abs(opt.Benefit-wantOpt) > 1e-9 {
		t.Errorf("optimal benefit = %v, want %v", opt.Benefit, wantOpt)
	}
}

// optimalUnitBenefit is a small indirection so lemma tests can use the
// exact optimum without re-importing.
func optimalUnitBenefit(st *stream.Stream, B, R int) (float64, error) {
	res, err := offline.OptimalUnit(st, B, R)
	if err != nil {
		return 0, err
	}
	return res.Benefit, nil
}

// TestScaleInvariance checks that the model has no natural unit: scaling
// every slice size, the buffer and the rate by 1024 leaves the weighted
// loss of every online policy, and of the whole-frame optimum, the same to
// the bit. A finer unit than the harness's 1 KB can change a result only
// through rounding the rate to whole units.
func TestScaleInvariance(t *testing.T) {
	const k = 1024
	policies := []drop.Factory{drop.TailDrop, drop.HeadDrop, drop.Greedy, drop.Random(1),
		drop.RandomMix(1, 0.5), drop.Anticipate(0.8, 0)}
	for seed := int64(1); seed <= 2; seed++ {
		gc := trace.DefaultGenConfig()
		gc.Frames, gc.Seed = 150, seed
		clip, err := trace.Generate(gc)
		if err != nil {
			t.Fatal(err)
		}
		st, err := trace.WholeFrameStream(clip, trace.PaperWeights())
		if err != nil {
			t.Fatal(err)
		}
		b := stream.NewBuilder()
		for _, r := range st.Runs() {
			b.AddRun(r.Arrival, r.Count, k*r.Size, r.Weight)
		}
		big := b.MustBuild()
		R := max(1, int(0.9*clip.AverageRate()))
		for _, D := range []int{2, 5} {
			B := R * D
			for _, f := range policies {
				small, err := Simulate(st, Config{ServerBuffer: B, Rate: R, Policy: f})
				if err != nil {
					t.Fatal(err)
				}
				large, err := Simulate(big, Config{ServerBuffer: k * B, Rate: k * R, Policy: f})
				if err != nil {
					t.Fatal(err)
				}
				if a, z := small.WeightedLoss(), large.WeightedLoss(); math.Float64bits(a) != math.Float64bits(z) {
					t.Errorf("seed %d D=%d %s: weighted loss %v at 1 unit, %v at 1/%d", seed, D, f().Name(), a, z, k)
				}
			}
			small, err := offline.OptimalFrames(st, B, R)
			if err != nil {
				t.Fatal(err)
			}
			large, err := offline.OptimalFrames(big, k*B, k*R)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(small.Benefit) != math.Float64bits(large.Benefit) {
				t.Errorf("seed %d D=%d: optimal benefit %v at 1 unit, %v at 1/%d", seed, D, small.Benefit, large.Benefit, k)
			}
			if small.Benefit >= st.TotalWeight() {
				t.Errorf("seed %d D=%d: even the optimum loses nothing, so the comparison shows little", seed, D)
			}
		}
	}
}
