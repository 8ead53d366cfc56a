package admission

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func demandSamples(t *testing.T, seed int64, frames int) []int {
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

// chernoff200 is ChernoffExponent as it was before the search stopped at
// its fixed point: the bracketing loop evaluates both ends every time and
// all 200 ternary iterations run. Test-only reference.
func chernoff200(samples []int, K int, C float64) float64 {
	objective := func(s float64) float64 {
		l, _ := LogMGF(samples, s)
		return float64(K)*l - s*C
	}
	hi := 1e-6
	for objective(2*hi) < objective(hi) && hi < 1e6 {
		hi *= 2
	}
	lo := 0.0
	for i := 0; i < 200; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if objective(m1) < objective(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	v := objective((lo + hi) / 2)
	if v > 0 {
		v = 0
	}
	return v
}

// TestChernoffExponentMatches200Iterations checks that stopping at the
// fixed point changes no bit: the admission table's calls (C = 8 x mean,
// K = 5..10), capacities below, between and above K x mean and K x peak,
// and constant and two-valued demand.
func TestChernoffExponentMatches200Iterations(t *testing.T) {
	train := demandSamples(t, 1, 2000)
	var mean float64
	peak := 0
	for _, x := range train {
		mean += float64(x)
		peak = max(peak, x)
	}
	mean /= float64(len(train))
	type call struct {
		samples []int
		K       int
		C       float64
	}
	var calls []call
	for K := 5; K <= 10; K++ {
		calls = append(calls, call{train, K, 8 * mean})
	}
	for _, f := range []float64{0.9, 1.2, 1.5} {
		calls = append(calls, call{train, 4, 4 * mean * f})
	}
	calls = append(calls, call{train, 4, float64(4*peak) + 1},
		call{[]int{10, 10, 10}, 2, 15}, call{[]int{10, 10, 10}, 2, 25}, call{[]int{120, 2}, 1, 100})
	for _, c := range calls {
		got, err := ChernoffExponent(c.samples, c.K, c.C)
		if err != nil {
			t.Fatal(err)
		}
		if want := chernoff200(c.samples, c.K, c.C); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("K=%d C=%v over %d samples: exponent %v, 200 iterations give %v", c.K, c.C, len(c.samples), got, want)
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
