// Package admission implements classical measurement-based admission
// control for multiplexed VBR streams — the machinery a network operator
// would combine with smoothing to decide HOW MANY streams fit a link. It
// follows the Chernoff-bound/effective-bandwidth approach (Hui; Kelly;
// standard in the era of the paper): estimate the log moment generating
// function of the per-step demand from a trace, and admit K streams on
// capacity C with target overflow probability ε iff
//
//	inf_s [ K·Λ(s) − s·C ]  ≤  log ε,
//
// where Λ(s) = log E[exp(s·X)] for the per-step demand X of one stream.
// The per-stream "effective bandwidth" at tilt s is Λ(s)/s, a number
// between the mean and the peak demand.
//
// Everything here is estimated empirically from traces (log-sum-exp for
// numerical stability) and validated in the tests and the "admission"
// experiment against the measured overflow frequency of independently
// generated streams.
package admission

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// LogMGF estimates Λ(s) = log((1/n)·Σ exp(s·x_i)) from per-step demand
// samples, using log-sum-exp to avoid overflow. s must be >= 0; samples
// must be non-empty.
func LogMGF(samples []int, s float64) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("admission: no samples")
	}
	if s < 0 || math.IsNaN(s) {
		return 0, fmt.Errorf("admission: negative tilt %v", s)
	}
	return logMGF(samples, slices.Max(samples), s), nil
}

// logMGF is LogMGF's one pass over the samples, given their peak. The
// log-sum-exp shift s·peak is the largest s·x_i bit for bit: rounding is
// monotone, so multiplying by s >= 0 keeps the maximum where it was.
func logMGF(samples []int, peak int, s float64) float64 {
	maxE := s * float64(peak)
	var sum float64
	for _, x := range samples {
		sum += math.Exp(s*float64(x) - maxE)
	}
	return maxE + math.Log(sum/float64(len(samples)))
}

// EffectiveBandwidth returns Λ(s)/s, the effective bandwidth of one stream
// at tilt s (> 0). As s→0 it approaches the mean demand; as s→∞ the peak.
func EffectiveBandwidth(samples []int, s float64) (float64, error) {
	if s <= 0 {
		return 0, fmt.Errorf("admission: non-positive tilt %v", s)
	}
	l, err := LogMGF(samples, s)
	if err != nil {
		return 0, err
	}
	return l / s, nil
}

// ChernoffExponent returns inf_{s>0} [K·Λ(s) − s·C]: the log of the
// Chernoff bound on the probability that K independent streams jointly
// demand more than C in one step. It is 0 (vacuous bound) when C is at or
// below K times the mean demand, and -Inf when C is at or above K times
// the peak.
func ChernoffExponent(samples []int, K int, C float64) (float64, error) {
	if K <= 0 {
		return 0, fmt.Errorf("admission: non-positive stream count %d", K)
	}
	if len(samples) == 0 {
		return 0, fmt.Errorf("admission: no samples")
	}
	peak := slices.Max(samples) // the objective is convex, 0 at s = 0
	v := minimize(func(s float64) float64 {
		return float64(K)*logMGF(samples, peak, s) - s*C
	}, 0, 1e-6)
	return min(v, 0), nil // the bound is a probability: never above 1
}

// minimize returns the minimum over s >= lo of f, unimodal there. It
// doubles a probe from first > lo while f keeps falling, so the minimiser
// lies between the probe before last and 2x the last one, then narrows
// that bracket by golden section — one evaluation a step — to 1e-10 of
// the last probe. Doubling stops at s = 1e6, past every sane tilt.
func minimize(f func(float64) float64, lo, first float64) float64 {
	s, fs := first, f(first)
	for f2 := f(2 * s); s < 1e6 && f2 < fs; f2 = f(2 * s) {
		lo, s, fs = s, 2*s, f2
	}
	const g = 0.6180339887498949 // 1/φ
	a, b := lo, 2*s
	c, d := b-g*(b-a), a+g*(b-a)
	fc, fd := f(c), f(d)
	for b-a > 1e-10*s {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - g*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + g*(b-a)
			fd = f(d)
		}
	}
	return min(fs, fc, fd)
}

// Decision counters: every admission decision — an Admissible verdict or
// a Gate.TryAdmit — increments one of these, so a daemon can expose
// accept/deny totals as scrape-time metrics (see Counters). Sizing a
// ceiling (MaxStreams, NewGate) decides nothing and counts nothing.
var (
	admitCount  atomic.Uint64
	rejectCount atomic.Uint64
)

// Counters returns how many admission decisions answered yes and no
// since process start. Errors count in neither.
func Counters() (admitted, rejected uint64) {
	return admitCount.Load(), rejectCount.Load()
}

// Admissible reports whether K streams fit capacity C with per-step
// overflow probability at most eps, by the Chernoff criterion.
func Admissible(samples []int, K int, C, eps float64) (bool, error) {
	if eps <= 0 || eps >= 1 {
		return false, fmt.Errorf("admission: eps %v outside (0, 1)", eps)
	}
	exp, err := ChernoffExponent(samples, K, C)
	if err != nil {
		return false, err
	}
	ok := exp <= math.Log(eps)
	if ok {
		admitCount.Add(1)
	} else {
		rejectCount.Add(1)
	}
	return ok, nil
}

// MaxStreams returns the largest K in [0, kMax] admissible on capacity C
// with target eps, from the dual form of the criterion: K is admissible
// iff K·Λ(s) − s·C <= log eps for some s > 0, that is iff K <= h(s) =
// (s·C + log eps)/Λ(s). Each superlevel set {h >= K} is a sublevel set of
// that convex objective, an interval, so h is unimodal (and negative below
// its root −log(eps)/C) and K* = min(kMax, floor(sup_s h)).
func MaxStreams(samples []int, C, eps float64, kMax int) (int, error) {
	if kMax < 1 {
		return 0, fmt.Errorf("admission: non-positive kMax %d", kMax)
	}
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("admission: eps %v outside (0, 1)", eps)
	}
	if len(samples) == 0 {
		return 0, fmt.Errorf("admission: no samples")
	}
	if !(C > 0) {
		return 0, nil
	}
	peak, logEps := slices.Max(samples), math.Log(eps)
	sup := -minimize(func(s float64) float64 {
		return -(s*C + logEps) / logMGF(samples, peak, s)
	}, -logEps/C, -2*logEps/C)
	return int(max(0, min(float64(kMax), math.Floor(sup)))), nil
}

// MeasuredOverflow returns the empirical per-step overflow frequency of
// summing the demand rows: fraction of steps where the combined demand of
// the K sample vectors exceeds C. All vectors are truncated to the
// shortest length.
func MeasuredOverflow(streams [][]int, C float64) (float64, error) {
	if len(streams) == 0 {
		return 0, fmt.Errorf("admission: no streams")
	}
	n := len(streams[0])
	for _, s := range streams {
		if len(s) < n {
			n = len(s)
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("admission: empty streams")
	}
	over := 0
	for t := 0; t < n; t++ {
		sum := 0
		for _, s := range streams {
			sum += s[t]
		}
		if float64(sum) > C {
			over++
		}
	}
	return float64(over) / float64(n), nil
}
