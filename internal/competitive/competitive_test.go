package competitive

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/drop"
)

func TestGreedyLowerBoundInstanceShape(t *testing.T) {
	const B = 5
	st, err := GreedyLowerBoundInstance(B, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != (B+1)+B+(B+1) {
		t.Fatalf("len = %d", st.Len())
	}
	if !st.UnitSliced() {
		t.Error("instance not unit-sliced")
	}
	if got := len(st.ArrivalsAt(0)); got != B+1 {
		t.Errorf("step 0 arrivals = %d, want %d", got, B+1)
	}
	if got := len(st.ArrivalsAt(B + 1)); got != B+1 {
		t.Errorf("burst arrivals = %d, want %d", got, B+1)
	}
	if st.ArrivalsAt(0)[0].Weight != 1 || st.ArrivalsAt(1)[0].Weight != 3 {
		t.Error("weights wrong")
	}
}

func TestGreedyLowerBoundInstanceErrors(t *testing.T) {
	if _, err := GreedyLowerBoundInstance(0, 2); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := GreedyLowerBoundInstance(2, 0.5); err == nil {
		t.Error("alpha<1 accepted")
	}
}

// TestTheorem47Measured — the measured greedy ratio on the instance equals
// the paper's closed form exactly.
func TestTheorem47Measured(t *testing.T) {
	for _, tc := range []struct {
		B     int
		alpha float64
	}{{4, 2}, {8, 5}, {16, 10}, {32, 100}} {
		st, err := GreedyLowerBoundInstance(tc.B, tc.alpha)
		if err != nil {
			t.Fatal(err)
		}
		ratio, online, opt, err := MeasureRatio(st, tc.B, 1, drop.Greedy)
		if err != nil {
			t.Fatal(err)
		}
		want := PredictedGreedyRatio(tc.B, tc.alpha)
		if math.Abs(ratio-want) > 1e-9 {
			t.Errorf("B=%d α=%v: measured ratio %v (online %v, opt %v), want %v",
				tc.B, tc.alpha, ratio, online, opt, want)
		}
	}
}

// TestTheorem47ApproachesTwo — the ratio tends to 2 as B and alpha grow.
func TestTheorem47ApproachesTwo(t *testing.T) {
	r := PredictedGreedyRatio(1000, 1000)
	if r < 1.99 || r > 2 {
		t.Errorf("limit ratio = %v, want just under 2", r)
	}
	// The epsilon bound of Theorem 4.7: ratio >= 2 - (2/(α+1) + 1/(B+1)).
	for _, tc := range []struct {
		B     int
		alpha float64
	}{{4, 2}, {10, 3}, {50, 20}} {
		eps := 2/(tc.alpha+1) + 1/float64(tc.B+1)
		if got := PredictedGreedyRatio(tc.B, tc.alpha); got < 2-eps-1e-9 {
			t.Errorf("B=%d α=%v: ratio %v below theorem's 2-ε = %v", tc.B, tc.alpha, got, 2-eps)
		}
	}
}

func TestMeasureRatioAtLeastOne(t *testing.T) {
	st, err := GreedyLowerBoundInstance(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []drop.Factory{drop.TailDrop, drop.HeadDrop, drop.Greedy} {
		ratio, _, _, err := MeasureRatio(st, 6, 1, f)
		if err != nil {
			t.Fatal(err)
		}
		if ratio < 1-1e-9 {
			t.Errorf("%s: ratio %v < 1 (optimal offline beaten?)", f().Name(), ratio)
		}
	}
}

func TestPredictedOnlineLB(t *testing.T) {
	// Paper: ≈1.2287 for α=2 (z ≈ 1.6861).
	if got := PredictedOnlineLB(2); math.Abs(got-1.2287) > 5e-4 {
		t.Errorf("PredictedOnlineLB(2) = %v, want ≈1.2287", got)
	}
	// Lotker/Sviridenko: ≈1.28197 for α≈4.015.
	if got := PredictedOnlineLB(4.015); math.Abs(got-1.28197) > 5e-4 {
		t.Errorf("PredictedOnlineLB(4.015) = %v, want ≈1.28197", got)
	}
}

// TestOnlineLowerBoundGame — the adversary must achieve at least the
// theorem's bound against every implemented policy.
func TestOnlineLowerBoundGame(t *testing.T) {
	const (
		B     = 24
		alpha = 2.0
	)
	bound := PredictedOnlineLB(alpha)
	for _, f := range []drop.Factory{drop.TailDrop, drop.HeadDrop, drop.Greedy} {
		res, err := OnlineLowerBoundGame(f, B, alpha, 3*B)
		if err != nil {
			t.Fatal(err)
		}
		// Finite-B slack: allow 5% below the asymptotic bound.
		if res.Ratio < bound*0.95 {
			t.Errorf("%s: adversary only achieved %v, theorem promises ≈%v",
				f().Name(), res.Ratio, bound)
		}
		if res.Online <= 0 || res.Opt <= 0 {
			t.Errorf("%s: degenerate game outcome %+v", f().Name(), res)
		}
	}
}

func TestOnlineLowerBoundGameErrors(t *testing.T) {
	if _, err := OnlineLowerBoundGame(drop.Greedy, 0, 2, 10); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := OnlineLowerBoundGame(drop.Greedy, 2, 0.5, 10); err == nil {
		t.Error("alpha<1 accepted")
	}
	if _, err := OnlineLowerBoundGame(drop.Greedy, 2, 2, 0); err == nil {
		t.Error("maxSteps=0 accepted")
	}
}

func TestBatchPattern(t *testing.T) {
	st, err := BatchPattern(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 12 {
		t.Fatalf("len = %d, want 12", st.Len())
	}
	if got := len(st.ArrivalsAt(4)); got != 4 {
		t.Errorf("second batch size = %d, want 4", got)
	}
	if got := len(st.ArrivalsAt(5)); got != 0 {
		t.Errorf("gap step has %d arrivals", got)
	}
	if _, err := BatchPattern(0, 1); err == nil {
		t.Error("batchSize=0 accepted")
	}
	if _, err := BatchPattern(1, 0); err == nil {
		t.Error("rounds=0 accepted")
	}
}

func TestOnlineLowerBoundGameRandomized(t *testing.T) {
	const (
		B     = 12
		alpha = 2.0
	)
	g, err := NewGame(B, alpha, 3*B)
	if err != nil {
		t.Fatal(err)
	}
	mixes := make([]drop.Factory, 8)
	for trial := range mixes {
		mixes[trial] = drop.RandomMix(int64(trial)*31+1, 0.5)
	}
	res, err := g.Play(mixes...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio < 1 {
		t.Errorf("randomized ratio %v < 1", res.Ratio)
	}
	if res.Online <= 0 || res.Opt <= 0 {
		t.Errorf("degenerate outcome: %+v", res)
	}
	// A p=0 mix is exactly the deterministic greedy: both games agree.
	det, err := g.Play(drop.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	same, err := g.Play(drop.RandomMix(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if same != det {
		t.Errorf("p=0 randomized game %+v != deterministic game %+v", same, det)
	}
}

func TestOnlineLowerBoundGameRandomizedErrors(t *testing.T) {
	if _, err := NewGame(0, 2, 5); err == nil {
		t.Error("B=0 accepted")
	}
	g, err := NewGame(2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Play(); err == nil {
		t.Error("a game with no trials accepted")
	}
	if _, err := g.Play(drop.Anticipate(0.5, 0)); err == nil || !strings.Contains(err.Error(), "anticipate") {
		t.Errorf("a policy the game cannot fork: error %v, want one naming it", err)
	}
}

// replayGame is the game as it was played before Play forked it: every
// scenario replayed from step 0 for every trial, which is what an adaptive
// adversary observes by definition. It is the oracle for Play.
func replayGame(g *Game, trials ...drop.Factory) (GameResult, error) {
	r := core.AcquireRunner()
	defer core.ReleaseRunner(r)
	best := GameResult{}
	for _, sc := range g.Scenarios {
		var sum float64
		for _, f := range trials {
			s, err := r.Run(sc.Stream, core.Config{ServerBuffer: g.B, Rate: 1, Policy: f})
			if err != nil {
				return GameResult{}, err
			}
			sum += s.Benefit()
		}
		mean := sum / float64(len(trials))
		if ratio := ratioOf(mean, sc.Opt); ratio > best.Ratio {
			best = GameResult{Ratio: ratio, StopStep: sc.StopStep, Burst: sc.Burst, Online: mean, Opt: sc.Opt}
		}
	}
	return best, nil
}

// TestGameMatchesReplay checks that the forked game finds exactly the
// scenario, ratio and benefits, to the bit, that replaying every scenario
// finds, for every policy the onlinelb table plays and the uniform random
// one, at both of its weight ratios.
func TestGameMatchesReplay(t *testing.T) {
	mixes := make([]drop.Factory, 6)
	for trial := range mixes {
		mixes[trial] = drop.RandomMix(1+int64(trial)*7919, 0.5)
	}
	for _, B := range []int{4, 12} {
		for _, alpha := range []float64{2, 4.015} {
			g, err := NewGame(B, alpha, 3*B)
			if err != nil {
				t.Fatal(err)
			}
			for _, trials := range [][]drop.Factory{{drop.Greedy}, {drop.TailDrop}, {drop.HeadDrop}, {drop.Random(3), drop.Random(4)}, mixes} {
				got, err := g.Play(trials...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := replayGame(g, trials...)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || math.Float64bits(got.Online) != math.Float64bits(want.Online) {
					t.Errorf("B=%d alpha=%v %s x%d: forked game %+v, replay %+v", B, alpha, trials[0]().Name(), len(trials), got, want)
				}
			}
		}
	}
}
