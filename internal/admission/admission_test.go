package admission

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func demandSamples(t testing.TB, seed int64, frames int) []int {
	t.Helper()
	cfg := trace.DefaultGenConfig()
	cfg.Frames = frames
	cfg.Seed = seed
	clip, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(clip.Frames))
	for i, f := range clip.Frames {
		out[i] = f.Size
	}
	return out
}

func TestLogMGFBasics(t *testing.T) {
	// Constant demand c: Λ(s) = s*c exactly.
	samples := []int{10, 10, 10}
	for _, s := range []float64{0, 0.1, 1, 5} {
		l, err := LogMGF(samples, s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(l-10*s) > 1e-9 {
			t.Errorf("Λ(%v) = %v, want %v", s, l, 10*s)
		}
	}
	if _, err := LogMGF(nil, 1); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := LogMGF(samples, -1); err == nil {
		t.Error("negative tilt accepted")
	}
}

func TestLogMGFNoOverflow(t *testing.T) {
	// Large tilt times large demand must not overflow to +Inf.
	l, err := LogMGF([]int{120, 2}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(l, 0) || math.IsNaN(l) {
		t.Errorf("Λ overflowed: %v", l)
	}
	if math.Abs(l-(50*120+math.Log(0.5))) > 1e-6 {
		t.Errorf("Λ = %v, want ≈ %v", l, 50*120+math.Log(0.5))
	}
}

func TestEffectiveBandwidthBetweenMeanAndPeak(t *testing.T) {
	samples := demandSamples(t, 1, 1000)
	mean := 0.0
	peak := 0
	for _, x := range samples {
		mean += float64(x)
		if x > peak {
			peak = x
		}
	}
	mean /= float64(len(samples))
	prev := mean - 1e-9
	for _, s := range []float64{0.001, 0.01, 0.1, 1} {
		eb, err := EffectiveBandwidth(samples, s)
		if err != nil {
			t.Fatal(err)
		}
		if eb < mean-1e-6 || eb > float64(peak)+1e-6 {
			t.Errorf("eb(%v) = %v outside [mean %v, peak %d]", s, eb, mean, peak)
		}
		if eb < prev-1e-9 {
			t.Errorf("effective bandwidth not non-decreasing at s=%v", s)
		}
		prev = eb
	}
	if _, err := EffectiveBandwidth(samples, 0); err == nil {
		t.Error("tilt 0 accepted")
	}
}

func TestChernoffExponentLimits(t *testing.T) {
	samples := demandSamples(t, 1, 1000)
	var mean float64
	peak := 0
	for _, x := range samples {
		mean += float64(x)
		if x > peak {
			peak = x
		}
	}
	mean /= float64(len(samples))

	// Capacity below K*mean: bound is vacuous (exponent 0).
	e, err := ChernoffExponent(samples, 4, 4*mean*0.9)
	if err != nil {
		t.Fatal(err)
	}
	if e < -1e-6 {
		t.Errorf("capacity below mean demand gave exponent %v, want ~0", e)
	}
	// Capacity above K*peak: the bound dives steeply negative.
	e, err = ChernoffExponent(samples, 4, float64(4*peak)+1)
	if err != nil {
		t.Fatal(err)
	}
	if e > -20 {
		t.Errorf("capacity above peak gave weak exponent %v", e)
	}
	// Monotone in capacity.
	e1, _ := ChernoffExponent(samples, 4, 4*mean*1.2)
	e2, _ := ChernoffExponent(samples, 4, 4*mean*1.5)
	if e2 > e1+1e-9 {
		t.Errorf("exponent not decreasing in capacity: %v then %v", e1, e2)
	}
}

// sweepConfigs and sweepEps are the sizing grid of the solver tests:
// seeds 1–12 x 24/150/500 frames x C in {2, 8, 50, 1000} x mean demand x
// eps in {1e-2, 1e-6, 1e-9}, 432 configurations.
type sweepConfig struct {
	seed    int64
	frames  int
	samples []int
	mean, C float64
}

var sweepEps = []float64{1e-2, 1e-6, 1e-9}

func sweepConfigs(t *testing.T) []sweepConfig {
	t.Helper()
	var out []sweepConfig
	for seed := int64(1); seed <= 12; seed++ {
		for _, frames := range []int{24, 150, 500} {
			samples := demandSamples(t, seed, frames)
			var mean float64
			for _, x := range samples {
				mean += float64(x)
			}
			mean /= float64(len(samples))
			for _, c := range []float64{2, 8, 50, 1000} {
				out = append(out, sweepConfig{seed, frames, samples, mean, c * mean})
			}
		}
	}
	return out
}

// nestedMaxStreams is the oracle for MaxStreams: a binary search over K,
// each probe a full ChernoffExponent solve. Admissibility is monotone in
// K because Λ >= 0 for non-negative demand.
func nestedMaxStreams(t testing.TB, samples []int, C, eps float64, kMax int) int {
	lo, hi := 0, kMax
	for lo < hi {
		mid := (lo + hi + 1) / 2
		e, err := ChernoffExponent(samples, mid, C)
		if err != nil {
			t.Fatal(err)
		}
		if e <= math.Log(eps) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// gridMin is min over a log grid of s in [1e-7, 1e3], 40 points a decade,
// of K·Λ(s) − s·C, capped at 0.
func gridMin(samples []int, K int, C float64) float64 {
	best := 0.0
	for i := 0; i <= 400; i++ {
		s := 1e-7 * math.Pow(10, float64(i)/40)
		l, _ := LogMGF(samples, s)
		best = min(best, float64(K)*l-s*C)
	}
	return best
}

// TestChernoffExponentIsTheInfimum checks the solver against a dense grid
// over the sizing grid, at the ceilings K* and K*+1 of every eps and at a
// quarter, half and 0.9 of C/mean: no grid point may lie more than 1e-9
// below the returned exponent. A search whose bracket stops short of the
// minimiser fails here (seed 2, 150 frames, C = 1000 x mean, K = 900).
func TestChernoffExponentIsTheInfimum(t *testing.T) {
	for _, c := range sweepConfigs(t) {
		ks := map[int]bool{}
		for _, q := range []float64{0.25, 0.5, 0.9} {
			ks[max(1, int(math.Ceil(q*c.C/c.mean)))] = true
		}
		for _, eps := range sweepEps {
			k, err := MaxStreams(c.samples, c.C, eps, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			ks[max(1, k)], ks[k+1] = true, true
		}
		for K := range ks {
			got, err := ChernoffExponent(c.samples, K, c.C)
			if err != nil {
				t.Fatal(err)
			}
			if g := gridMin(c.samples, K, c.C); got > g+1e-9 {
				t.Errorf("seed %d, %d frames, C=%.0f x mean, K=%d: exponent %v, a grid point reaches %v",
					c.seed, c.frames, c.C/c.mean, K, got, g)
			}
		}
	}
}

// TestMaxStreamsMatchesNestedSearch checks the dual solve against the
// nested binary search on all 432 configurations.
func TestMaxStreamsMatchesNestedSearch(t *testing.T) {
	for _, c := range sweepConfigs(t) {
		for _, eps := range sweepEps {
			got, err := MaxStreams(c.samples, c.C, eps, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if want := nestedMaxStreams(t, c.samples, c.C, eps, 1<<20); got != want {
				t.Errorf("seed %d, %d frames, C=%.0f x mean, eps %v: MaxStreams %d, nested search %d",
					c.seed, c.frames, c.C/c.mean, eps, got, want)
			}
		}
	}
}

func TestChernoffBoundsMeasuredOverflow(t *testing.T) {
	// The Chernoff bound must upper-bound the measured per-step overflow
	// frequency of independent streams drawn from the same generator.
	const K = 6
	train := demandSamples(t, 1, 2000)
	var streams [][]int
	for i := 0; i < K; i++ {
		streams = append(streams, demandSamples(t, 100+int64(i), 2000))
	}
	var mean float64
	for _, x := range train {
		mean += float64(x)
	}
	mean /= float64(len(train))

	for _, factor := range []float64{1.1, 1.2, 1.35} {
		C := float64(K) * mean * factor
		exp, err := ChernoffExponent(train, K, C)
		if err != nil {
			t.Fatal(err)
		}
		bound := math.Exp(exp)
		measured, err := MeasuredOverflow(streams, C)
		if err != nil {
			t.Fatal(err)
		}
		// Allow slack for finite samples and train/test mismatch: the
		// bound must not be exceeded by more than a small margin.
		if measured > bound*1.5+0.01 {
			t.Errorf("factor %v: measured overflow %.4f far above Chernoff bound %.4f",
				factor, measured, bound)
		}
	}
}

func TestAdmissibleAndMaxStreams(t *testing.T) {
	samples := demandSamples(t, 1, 1500)
	var mean float64
	for _, x := range samples {
		mean += float64(x)
	}
	mean /= float64(len(samples))
	C := 10 * mean * 1.15 // capacity for ~10 average streams + 15% headroom

	k, err := MaxStreams(samples, C, 1e-3, 64)
	if err != nil {
		t.Fatal(err)
	}
	if k < 1 || k > 11 {
		t.Errorf("MaxStreams = %d, expected a moderate count", k)
	}
	ok, err := Admissible(samples, k, C, 1e-3)
	if err != nil || !ok {
		t.Errorf("K=%d not admissible: %v %v", k, ok, err)
	}
	ok, err = Admissible(samples, k+1, C, 1e-3)
	if err != nil || ok {
		t.Errorf("K=%d admissible beyond the maximum", k+1)
	}
	// Looser target admits at least as many.
	k2, err := MaxStreams(samples, C, 1e-1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if k2 < k {
		t.Errorf("looser eps admitted fewer streams: %d < %d", k2, k)
	}
}

func TestValidationErrors(t *testing.T) {
	samples := []int{1, 2}
	if _, err := Admissible(samples, 1, 10, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := Admissible(samples, 1, 10, 1); err == nil {
		t.Error("eps=1 accepted")
	}
	if _, err := ChernoffExponent(samples, 0, 10); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := MaxStreams(samples, 10, 0.1, 0); err == nil {
		t.Error("kMax=0 accepted")
	}
	if _, err := MeasuredOverflow(nil, 10); err == nil {
		t.Error("no streams accepted")
	}
	if _, err := MeasuredOverflow([][]int{{}}, 10); err == nil {
		t.Error("empty streams accepted")
	}
}

func TestMeasuredOverflow(t *testing.T) {
	streams := [][]int{
		{1, 5, 1, 5},
		{1, 5, 1, 1},
	}
	got, err := MeasuredOverflow(streams, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.25 { // only step 1 sums to 10 > 6... step 3 sums to 6, not over
		t.Errorf("overflow = %v, want 0.25", got)
	}
}

// FuzzMaxStreamsMatchesOracle checks the dual solve against the nested
// search on arbitrary positive demand (one sample per byte, 1–256), a
// capacity of c/64 x mean and eps = 10^-(1 + e mod 15). The seed corpus
// in testdata/fuzz holds constant demand (h rising toward C/x, with an
// integer and a fractional C/x), the gate tests' mean-4 peak-8 trace, a
// burst at eps 1e-15, one sample, and capacity below the mean.
func FuzzMaxStreamsMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, c uint16, e uint8) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		samples := make([]int, len(data))
		var mean float64
		for i, b := range data {
			samples[i] = int(b) + 1
			mean += float64(samples[i])
		}
		mean /= float64(len(samples))
		C, eps := float64(c)/64*mean, math.Pow(10, -1-float64(e%15))
		got, err := MaxStreams(samples, C, eps, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if want := nestedMaxStreams(t, samples, C, eps, 1<<20); got != want {
			t.Errorf("%d samples, C=%v, eps %v: MaxStreams %d, nested search %d", len(samples), C, eps, got, want)
		}
	})
}
