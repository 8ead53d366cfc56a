// Package competitive builds the adversarial instances of Section 4 of the
// paper and measures competitive ratios of online drop policies against the
// exact offline optimum.
//
// It provides:
//
//   - the parametric Theorem 4.7 instance on which the greedy policy
//     achieves ratio 2 − (2/(α+1) + 1/(B+1));
//   - the adaptive two-scenario game of Theorem 4.8 (Game), which forces every
//     deterministic online algorithm to a ratio of at least ≈1.2287
//     (α = 2) or ≈1.28197 (α ≈ 4.015, the Lotker/Sviridenko refinement);
//   - the batch pattern that makes Lemma 3.6's buffer-scaling bound tight;
//   - MeasureRatio, a convenience that runs a policy online and divides the
//     exact offline benefit by the online benefit.
package competitive

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/freelist"
	"repro/internal/offline"
	"repro/internal/stream"
)

// GreedyLowerBoundInstance builds the Theorem 4.7 stream for buffer size B
// and weight ratio alpha (link rate 1, unit slices):
//
//   - step 0: B+1 slices of weight 1;
//   - steps 1..B: one slice of weight alpha each;
//   - step B+1: B+1 slices of weight alpha.
//
// On it, the greedy policy keeps all early weight-1 slices and is then
// forced to discard B weight-alpha slices, while the optimum sacrifices the
// weight-1 slices up front.
func GreedyLowerBoundInstance(B int, alpha float64) (*stream.Stream, error) {
	if B < 1 {
		return nil, fmt.Errorf("competitive: buffer size must be >= 1, got %d", B)
	}
	if alpha < 1 {
		return nil, fmt.Errorf("competitive: alpha must be >= 1, got %v", alpha)
	}
	b := stream.NewBuilder()
	for i := 0; i <= B; i++ {
		b.Add(0, 1, 1)
	}
	for t := 1; t <= B; t++ {
		b.Add(t, 1, alpha)
	}
	for i := 0; i <= B; i++ {
		b.Add(B+1, 1, alpha)
	}
	return b.Build()
}

// PredictedGreedyRatio returns the exact optimal/greedy benefit ratio on
// the Theorem 4.7 instance:
//
//	(α(2B+1) + 1) / ((B+1)(α+1)) = 2 − (2B+α+1)/((B+1)(α+1)).
func PredictedGreedyRatio(B int, alpha float64) float64 {
	return (alpha*float64(2*B+1) + 1) / (float64(B+1) * (alpha + 1))
}

// MeasureRatio runs the policy online through the generic algorithm with
// server buffer B, rate R and delay B/R, computes the exact offline
// optimum, and returns opt/online along with both benefits. The ratio is
// +Inf if the online benefit is zero while the optimum is positive, and 1
// if both are zero.
func MeasureRatio(st *stream.Stream, B, R int, factory drop.Factory) (ratio, online, opt float64, err error) {
	r := core.AcquireRunner()
	defer core.ReleaseRunner(r)
	s, err := r.Run(st, core.Config{ServerBuffer: B, Rate: R, Policy: factory})
	if err != nil {
		return 0, 0, 0, err
	}
	online = s.Benefit()

	var res *offline.Result
	if st.UnitSliced() {
		res, err = offline.OptimalUnit(st, B, R)
	} else {
		res, err = offline.OptimalFrames(st, B, R)
	}
	if err != nil {
		return 0, 0, 0, err
	}
	opt = res.Benefit

	switch {
	case online == 0 && opt == 0:
		ratio = 1
	case online == 0:
		ratio = math.Inf(1)
	default:
		ratio = opt / online
	}
	return ratio, online, opt, nil
}

// ratioOf applies MeasureRatio's zero conventions to a precomputed pair.
func ratioOf(online, opt float64) float64 {
	switch {
	case online == 0 && opt == 0:
		return 1
	case online == 0:
		return math.Inf(1)
	default:
		return opt / online
	}
}

// GameResult reports the outcome of the Theorem 4.8 adversary game.
type GameResult struct {
	// Ratio is the best (largest) opt/online ratio the adversary found.
	Ratio float64
	// StopStep is the cut step t1 of the winning scenario.
	StopStep int
	// Burst is true if the winning scenario appends the weight-alpha
	// burst at t1+1, false if it simply truncates the stream.
	Burst bool
	// Online is the online benefit in the winning scenario, the mean
	// over the trials for a randomized policy, and Opt the optimum's.
	Online, Opt float64
}

// GameScenario is one fixed input of the Theorem 4.8 adversary game: the
// scenario stream for a cut step together with its exact offline optimum.
type GameScenario struct {
	// StopStep is the cut step t1 of the scenario.
	StopStep int
	// Burst is true if the scenario appends the weight-alpha burst at t1+1.
	Burst bool
	// Stream is the scenario's arrival sequence.
	Stream *stream.Stream
	// Opt is the exact offline optimal benefit on Stream.
	Opt float64
}

// Game is the adaptive adversary of Theorem 4.8 for buffer B, link rate 1
// and weight ratio alpha. The base arrival pattern is B+1 weight-1 slices
// at step 0 followed by one weight-alpha slice per step; for every cut step
// t1 in [0, maxSteps] the adversary considers both endings — stop the
// stream at t1, or append B+1 weight-alpha slices at t1+1 — and keeps the
// scenario with the worst ratio for the online player.
type Game struct {
	// B is the buffer size.
	B int
	// Scenarios lists the adversary's inputs, each with its offline
	// optimum: for t1 = 0..maxSteps, the truncated one, then the burst.
	Scenarios []GameScenario
	// base is the burst-free stream cut at maxSteps, which every scenario
	// follows up to its cut step.
	base *stream.Stream
}

// NewGame builds the Theorem 4.8 scenario set for buffer B, weight ratio
// alpha and cut steps 0..maxSteps, with each scenario's offline optimum
// computed once. Playing the game against several policies (as the
// onlinelb table does) shares this expensive part.
func NewGame(B int, alpha float64, maxSteps int) (*Game, error) {
	if B < 1 || alpha < 1 || maxSteps < 1 {
		return nil, fmt.Errorf("competitive: invalid game parameters B=%d alpha=%v maxSteps=%d", B, alpha, maxSteps)
	}
	g := &Game{B: B, Scenarios: make([]GameScenario, 0, 2*(maxSteps+1))}
	for t1 := 0; t1 <= maxSteps; t1++ {
		for _, burst := range []bool{false, true} {
			st, err := gameStream(B, alpha, t1, burst)
			if err != nil {
				return nil, err
			}
			opt, err := offline.OptimalUnit(st, B, 1)
			if err != nil {
				return nil, err
			}
			g.Scenarios = append(g.Scenarios, GameScenario{
				StopStep: t1, Burst: burst, Stream: st, Opt: opt.Benefit,
			})
		}
	}
	g.base = g.Scenarios[2*maxSteps].Stream
	return g, nil
}

// OnlineLowerBoundGame plays the Theorem 4.8 game (see Game) for buffer B,
// weight ratio alpha and cut steps 0..maxSteps against a deterministic
// policy.
func OnlineLowerBoundGame(factory drop.Factory, B int, alpha float64, maxSteps int) (GameResult, error) {
	g, err := NewGame(B, alpha, maxSteps)
	if err != nil {
		return GameResult{}, err
	}
	return g.Play(factory)
}

// Play's arenas and per-scenario benefit sums are recycled on free lists
// of their own. A game holds two arenas at once, and the shared ones
// (core.AcquireRunner) grow to the largest stream any sweep runs through
// them; a game's arenas only ever see game streams, so they stay small.
var (
	runnerFree freelist.List[core.Runner]
	sumsFree   freelist.List[[]float64]
)

// Play plays the game against one policy per trial and returns the
// scenario with the worst ratio of the optimum to the policy's mean
// benefit over the trials. A deterministic policy needs one trial: an
// adaptive adversary that watches it gains nothing over one that fixed
// its input in advance, since it can predict every move. For a
// randomized policy, give each trial its own seed; the adversary is then
// oblivious (it cannot react to the coin flips), which is a different
// game: Theorem 4.8's bound covers deterministic policies only, and this
// measures how much randomization buys against the same scenarios.
//
// An online policy cannot see arrivals before they come, so its state
// after step t1 is the same in every scenario cut at t1 or later. Play
// runs each trial once along the base stream and, after every cut step,
// forks the run into its two endings (core.Runner.ForkInto), so only the
// drain after the cut is simulated per scenario. The benefit sums are
// taken in trial order, as a replay of every scenario would take them.
func (g *Game) Play(trials ...drop.Factory) (GameResult, error) {
	if len(trials) == 0 {
		return GameResult{}, errors.New("competitive: a game needs at least one trial")
	}
	base, fork := runnerFree.Get(core.NewRunner), runnerFree.Get(core.NewRunner)
	defer runnerFree.Put(base)
	defer runnerFree.Put(fork)
	sums := sumsFree.Get(func() *[]float64 { return new([]float64) })
	defer sumsFree.Put(sums)
	*sums = slices.Grow((*sums)[:0], len(g.Scenarios))[:len(g.Scenarios)]
	clear(*sums)

	for _, factory := range trials {
		if err := base.Start(g.base, core.Config{ServerBuffer: g.B, Rate: 1, Policy: factory}); err != nil {
			return GameResult{}, err
		}
		for i, sc := range g.Scenarios {
			if err := base.Advance(sc.StopStep); err != nil {
				return GameResult{}, err
			}
			if err := base.ForkInto(fork, sc.Stream); err != nil {
				return GameResult{}, err
			}
			s, err := fork.Finish()
			if err != nil {
				return GameResult{}, err
			}
			(*sums)[i] += s.Benefit()
		}
	}

	best := GameResult{}
	for i, sc := range g.Scenarios {
		mean := (*sums)[i] / float64(len(trials))
		if ratio := ratioOf(mean, sc.Opt); ratio > best.Ratio {
			best = GameResult{Ratio: ratio, StopStep: sc.StopStep, Burst: sc.Burst, Online: mean, Opt: sc.Opt}
		}
	}
	return best, nil
}

// gameStream builds the Theorem 4.8 scenario stream: B+1 weight-1 slices at
// step 0, one weight-alpha slice at each step 1..t1, and, if burst is set,
// B+1 weight-alpha slices at step t1+1.
func gameStream(B int, alpha float64, t1 int, burst bool) (*stream.Stream, error) {
	b := stream.NewBuilder()
	for i := 0; i <= B; i++ {
		b.Add(0, 1, 1)
	}
	for t := 1; t <= t1; t++ {
		b.Add(t, 1, alpha)
	}
	if burst {
		for i := 0; i <= B; i++ {
			b.Add(t1+1, 1, alpha)
		}
	}
	return b.Build()
}

// PredictedOnlineLB returns the asymptotic (large B) lower bound on the
// competitive ratio of any deterministic online algorithm that the
// Theorem 4.8 adversary guarantees for a given alpha: the online player
// picks the cut point z = B/t1 that minimizes the worse of the two
// scenario ratios
//
//	r1(z) = (1 + α/z) / (1/z + 1 + α/z)        (truncate at t1)
//	r2(z) = (α(1 + 1/z + 1)) / (1/z + 1 + α)   (burst at t1+1)
//
// in the normalized limit; numerically this gives ≈1.2287 at α=2 and
// ≈1.28197 at α≈4.015.
func PredictedOnlineLB(alpha float64) float64 {
	// Normalize by B: t1 = B/z. Benefits per unit of B as B→∞:
	// scenario 1: online = t1 + α·t1 = (1+α)/z ... plus the B+1 ones it
	// kept? In the limit, online scenario-1 benefit ≈ t1·1 + α·t1 and
	// opt ≈ B + α·t1; scenario 2: online ≈ t1 + αB, opt ≈ α(t1 + B).
	// (Constant terms vanish as B→∞.)
	r := func(z float64) float64 {
		t1 := 1 / z // in units of B
		r1 := (1 + alpha*t1) / (t1 + alpha*t1)
		r2 := alpha * (t1 + 1) / (t1 + alpha)
		return math.Max(r1, r2)
	}
	// The online player minimizes over z > 0; r1 decreases in t1, r2
	// increases, so ternary search over log z is unimodal.
	lo, hi := -6.0, 6.0 // log z
	for i := 0; i < 200; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if r(math.Exp(m1)) < r(math.Exp(m2)) {
			hi = m2
		} else {
			lo = m1
		}
	}
	return r(math.Exp((lo + hi) / 2))
}

// BatchPattern builds the Lemma 3.6 tightness input: bursts of batchSize
// unit slices (weight 1) arriving every batchSize steps, for the given
// number of rounds, so a rate-1 server with buffer batchSize loses nothing
// while any smaller buffer B1 loses batchSize−B1−1 slices per round.
func BatchPattern(batchSize, rounds int) (*stream.Stream, error) {
	if batchSize < 1 || rounds < 1 {
		return nil, fmt.Errorf("competitive: invalid batch pattern %d x %d", batchSize, rounds)
	}
	b := stream.NewBuilder()
	for k := 0; k < rounds; k++ {
		for i := 0; i < batchSize; i++ {
			b.Add(k*batchSize, 1, 1)
		}
	}
	return b.Build()
}
