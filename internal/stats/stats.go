// Package stats provides the small statistical substrate used by the trace
// generator and the experiment harness: summary statistics, log-bucketed
// histograms, and lognormal sampling with deterministic seeds. Everything is stdlib-only and
// allocation-conscious.
package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Summary holds the usual scalar summary of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // population standard deviation
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(xs)))
	return s
}

// String renders the summary compactly, e.g. "n=100 mean=38.2 sd=21.0 min=4 max=120".
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g", s.N, s.Mean, s.StdDev, s.Min, s.Max)
}

// Lognormal samples a lognormal distribution with the given location (mu)
// and scale (sigma) of the underlying normal, i.e. exp(N(mu, sigma^2)).
type Lognormal struct {
	Mu, Sigma float64
}

// LognormalFromMoments constructs the Lognormal whose mean and standard
// deviation (of the lognormal itself, not the underlying normal) match the
// given values. mean must be positive and sd non-negative.
func LognormalFromMoments(mean, sd float64) (Lognormal, error) {
	if mean <= 0 || sd < 0 {
		return Lognormal{}, fmt.Errorf("stats: invalid lognormal moments mean=%v sd=%v", mean, sd)
	}
	if sd == 0 {
		return Lognormal{Mu: math.Log(mean), Sigma: 0}, nil
	}
	v := sd * sd
	m2 := mean * mean
	sigma2 := math.Log(1 + v/m2)
	return Lognormal{
		Mu:    math.Log(mean) - sigma2/2,
		Sigma: math.Sqrt(sigma2),
	}, nil
}

// Sample draws one value using the supplied source.
func (ln Lognormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(ln.Mu + ln.Sigma*rng.NormFloat64())
}

// Mean returns the mean of the lognormal distribution.
func (ln Lognormal) Mean() float64 { return math.Exp(ln.Mu + ln.Sigma*ln.Sigma/2) }

// FitLognormal estimates Mu and Sigma by the method of moments on the log of
// the (positive) sample. Non-positive observations are an error.
func FitLognormal(xs []float64) (Lognormal, error) {
	if len(xs) == 0 {
		return Lognormal{}, fmt.Errorf("stats: cannot fit lognormal to empty sample")
	}
	logs := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return Lognormal{}, fmt.Errorf("stats: non-positive observation %v at index %d", x, i)
		}
		logs[i] = math.Log(x)
	}
	s := Summarize(logs)
	return Lognormal{Mu: s.Mean, Sigma: s.StdDev}, nil
}

// Autocorrelation returns the sample autocorrelation of xs at lags
// 0..maxLag (inclusive). Lag 0 is always 1 for a non-constant sample; a
// constant (zero-variance) sample returns all zeros beyond lag 0.
func Autocorrelation(xs []float64, maxLag int) []float64 {
	if maxLag < 0 {
		maxLag = 0
	}
	out := make([]float64, maxLag+1)
	n := len(xs)
	if n == 0 {
		return out
	}
	s := Summarize(xs)
	den := s.StdDev * s.StdDev * float64(n)
	if den == 0 {
		out[0] = 1
		return out
	}
	for lag := 0; lag <= maxLag && lag < n; lag++ {
		var num float64
		for i := 0; i+lag < n; i++ {
			num += (xs[i] - s.Mean) * (xs[i+lag] - s.Mean)
		}
		out[lag] = num / den
	}
	return out
}

// IndexOfDispersion returns Var(S_w)/(mean·w) where S_w is the sum of xs
// over non-overlapping windows of length w — the classic IDC burstiness
// measure (1 for a Poisson-like process, larger for positively correlated
// traffic). It returns 0 when there are fewer than two complete windows or
// the mean is 0.
func IndexOfDispersion(xs []float64, window int) float64 {
	if window <= 0 || len(xs)/window < 2 {
		return 0
	}
	var sums []float64
	for start := 0; start+window <= len(xs); start += window {
		var s float64
		for i := start; i < start+window; i++ {
			s += xs[i]
		}
		sums = append(sums, s)
	}
	all := Summarize(xs)
	if all.Mean == 0 {
		return 0
	}
	ws := Summarize(sums)
	return ws.StdDev * ws.StdDev / (all.Mean * float64(window))
}

// AR1 is a first-order autoregressive process x' = phi*x + (1-phi)*target + noise,
// used to modulate scene-level burstiness in the trace generator.
type AR1 struct {
	Phi    float64 // persistence in [0, 1)
	Target float64 // long-run mean
	Noise  float64 // stddev of the innovation
	x      float64
	init   bool
}

// Next advances the process one step and returns the new value.
func (a *AR1) Next(rng *rand.Rand) float64 {
	if !a.init {
		a.x = a.Target
		a.init = true
	}
	a.x = a.Phi*a.x + (1-a.Phi)*a.Target + a.Noise*rng.NormFloat64()
	return a.x
}
