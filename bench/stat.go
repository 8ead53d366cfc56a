package main

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// median returns the middle of xs (mean of the two middles for an even
// count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, 0 for none. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailLadder lists the percentiles a timing may be reported at; one
// sample in every `every` lies beyond each.
var tailLadder = []struct {
	label string
	q     float64
	every int64
}{
	{"p90", 0.90, 10}, {"p99", 0.99, 100}, {"p99.9", 0.999, 1000}, {"p99.99", 0.9999, 10000}, {"p99.999", 0.99999, 100000},
}

// tailPercentile picks the highest percentile that still has at least ten
// of n samples beyond it; ok is false when even p90 has fewer.
func tailPercentile(n int64) (label string, q float64, ok bool) {
	for _, t := range tailLadder {
		if n >= 10*t.every {
			label, q, ok = t.label, t.q, true
		}
	}
	return label, q, ok
}

// describeHist renders a histogram of microsecond timings as its median
// plus the highest percentile the sample count supports.
func describeHist(h *stats.LogHistogram) string {
	if h.Count() == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("p50=%dus", h.Quantile(0.5))
	if label, q, ok := tailPercentile(h.Count()); ok {
		s += fmt.Sprintf(" %s=%dus", label, h.Quantile(q))
	}
	return s + fmt.Sprintf(" max=%dus n=%d", h.Max(), h.Count())
}

// describeSamples does the same for a slice of samples in the given unit.
func describeSamples(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("p50=%.4g%s", median(xs), unit)
	if label, q, ok := tailPercentile(int64(len(xs))); ok {
		s += fmt.Sprintf(" %s=%.4g%s", label, quantile(xs, q), unit)
	}
	return s + fmt.Sprintf(" max=%.4g%s n=%d", quantile(xs, 1), unit, len(xs))
}

// fracAtMost returns the share of h's observations that are at most limit.
// LogHistogram exports quantiles, not counts, so this bisects on the rank:
// Quantile is monotone in it. The answer is exact up to the observations
// that share limit's bucket (a 1/32 relative width).
func fracAtMost(h *stats.LogHistogram, limit int64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	lo, hi := int64(0), n // ranks 1..lo are known to be <= limit
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if h.Quantile(float64(mid)/float64(n)) <= limit {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return float64(lo) / float64(n)
}
