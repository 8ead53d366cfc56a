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
	maxE := math.Inf(-1)
	for _, x := range samples {
		if e := s * float64(x); e > maxE {
			maxE = e
		}
	}
	var sum float64
	for _, x := range samples {
		sum += math.Exp(s*float64(x) - maxE)
	}
	return maxE + math.Log(sum/float64(len(samples))), nil
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
	objective := func(s float64) float64 {
		l, _ := LogMGF(samples, s)
		return float64(K)*l - s*C
	}
	// The objective is convex in s with objective(0) = 0; minimize by
	// ternary search over an exponentially located bracket.
	hi, fHi := 1e-6, objective(1e-6)
	for hi < 1e6 {
		f2 := objective(2 * hi)
		if !(f2 < fHi) {
			break
		}
		hi, fHi = 2*hi, f2
	}
	// An iteration maps (lo, hi) to a pair that depends on that pair
	// alone, so once one leaves it unchanged (the thirds no longer move in
	// float64) every later one would too: stop there, at exactly the pair
	// that all 200 iterations reach.
	lo := 0.0
	for i := 0; i < 200; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if objective(m1) < objective(m2) {
			if m2 == hi {
				break
			}
			hi = m2
		} else {
			if m1 == lo {
				break
			}
			lo = m1
		}
	}
	v := objective((lo + hi) / 2)
	if v > 0 {
		v = 0 // the bound is a probability: never above 1
	}
	return v, nil
}

// Decision counters: every Admissible verdict increments one of these,
// so a daemon evaluating admission control online can expose accept/deny
// totals as scrape-time metrics (see Counters). Package-level because the
// admission math is stateless — there is no controller object to hang
// them on.
var (
	admitCount  atomic.Uint64
	rejectCount atomic.Uint64
)

// Counters returns how many Admissible evaluations answered yes and no
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
// with target eps. Admissibility is monotone decreasing in K, so a binary
// search suffices.
func MaxStreams(samples []int, C, eps float64, kMax int) (int, error) {
	if kMax < 1 {
		return 0, fmt.Errorf("admission: non-positive kMax %d", kMax)
	}
	lo, hi := 0, kMax
	for lo < hi {
		mid := (lo + hi + 1) / 2
		ok, err := Admissible(samples, mid, C, eps)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
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
