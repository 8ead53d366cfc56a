package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// randomPartition splits samples into k non-empty-ish histograms the way
// shards would record them (round-robin would be too regular: use a
// random owner per sample so shard loads are uneven).
func randomPartition(rng *rand.Rand, samples []int64, k int) []*LogHistogram {
	parts := make([]*LogHistogram, k)
	for i := range parts {
		parts[i] = NewLogHistogram(DefaultLogHistSubBits)
	}
	for _, v := range samples {
		parts[rng.Intn(k)].Add(v)
	}
	return parts
}

// TestLogHistogramMergeQuantileBound is the scrape-merge accuracy
// contract: after merging arbitrarily partitioned shard histograms, every
// quantile estimate still lies within the documented 1/2^subBits relative
// error of the exact sorted-sample quantile. Merging must not compound
// the error — buckets align exactly, so a merged histogram is identical
// to one that saw every sample directly.
func TestLogHistogramMergeQuantileBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gens := map[string]func() int64{
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*2 + 8)) },
		"pareto":    func() int64 { return int64(50 * math.Pow(rng.Float64(), -1/1.3)) },
		"uniform":   func() int64 { return rng.Int63n(1 << 35) },
		"bimodal": func() int64 {
			if rng.Intn(2) == 0 {
				return rng.Int63n(64)
			}
			return 500_000 + rng.Int63n(5000)
		},
	}
	relBound := 1.0 / float64(int64(1)<<DefaultLogHistSubBits)
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			for _, shards := range []int{2, 7, 16} {
				samples := make([]int64, 8000)
				for i := range samples {
					samples[i] = gen()
				}
				parts := randomPartition(rng, samples, shards)
				merged := NewLogHistogram(DefaultLogHistSubBits)
				for _, p := range parts {
					merged.Merge(p)
				}
				sorted := append([]int64(nil), samples...)
				sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
				for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
					exact := exactNearestRank(sorted, q)
					got := merged.Quantile(q)
					tol := int64(relBound*float64(exact)) + 1
					if diff := got - exact; diff > tol || diff < -tol {
						t.Errorf("shards=%d q=%v: merged %d vs exact %d (tolerance %d)", shards, q, got, exact, tol)
					}
				}
				// Exact extremes must survive the merge even when the min
				// and max were recorded by different shards.
				if merged.Min() != sorted[0] || merged.Max() != sorted[len(sorted)-1] {
					t.Errorf("shards=%d extremes: got [%d, %d], want [%d, %d]",
						shards, merged.Min(), merged.Max(), sorted[0], sorted[len(sorted)-1])
				}
			}
		})
	}
}

// TestLogHistogramMergeOrderInvariance: merging the same shard set in any
// order — including merging into a non-empty accumulator — yields
// bit-identical state. The /metrics determinism contract rests on this.
func TestLogHistogramMergeOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(6)
		samples := make([]int64, 500+rng.Intn(3000))
		for i := range samples {
			samples[i] = int64(math.Exp(rng.NormFloat64()*3 + 6))
		}
		parts := randomPartition(rng, samples, k)

		mergeIn := func(order []int) *LogHistogram {
			acc := NewLogHistogram(DefaultLogHistSubBits)
			for _, idx := range order {
				acc.Merge(parts[idx])
			}
			return acc
		}
		fwd := make([]int, k)
		for i := range fwd {
			fwd[i] = i
		}
		ref := mergeIn(fwd)
		for perm := 0; perm < 5; perm++ {
			order := append([]int(nil), fwd...)
			rng.Shuffle(k, func(i, j int) { order[i], order[j] = order[j], order[i] })
			got := mergeIn(order)
			if got.Count() != ref.Count() || got.Sum() != ref.Sum() ||
				got.Min() != ref.Min() || got.Max() != ref.Max() {
				t.Fatalf("trial %d order %v: aggregates differ: %v vs %v", trial, order, got, ref)
			}
			for i := range got.counts {
				if got.counts[i] != ref.counts[i] {
					t.Fatalf("trial %d order %v: bucket %d differs: %d vs %d",
						trial, order, i, got.counts[i], ref.counts[i])
				}
			}
		}
	}
}

// TestLogHistogramCopyFrom: a published snapshot must be bit-identical to
// its source and fully detached from later writes.
func TestLogHistogramCopyFrom(t *testing.T) {
	src := NewLogHistogram(DefaultLogHistSubBits)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		src.Add(rng.Int63n(1 << 30))
	}
	dst := NewLogHistogram(DefaultLogHistSubBits)
	dst.Add(777) // stale state a reused snapshot would carry
	dst.CopyFrom(src)
	if dst.Count() != src.Count() || dst.Sum() != src.Sum() || dst.Min() != src.Min() || dst.Max() != src.Max() {
		t.Fatalf("copy aggregates differ: %v vs %v", dst, src)
	}
	for i := range dst.counts {
		if dst.counts[i] != src.counts[i] {
			t.Fatalf("bucket %d differs after copy", i)
		}
	}
	before := dst.Count()
	src.Add(123)
	if dst.Count() != before {
		t.Fatal("copy aliases the source bucket array")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("mismatched-resolution CopyFrom did not panic")
		}
	}()
	dst.CopyFrom(NewLogHistogram(3))
}

// TestLogHistogramCopyFromNarrows: CopyFrom touches only the occupied
// buckets, so a wide copy followed by a narrow one — and by an empty one —
// must leave exactly what a fresh full copy of the last source holds.
func TestLogHistogramCopyFromNarrows(t *testing.T) {
	fill := func(lo, hi int64, n int) *LogHistogram {
		h := NewLogHistogram(DefaultLogHistSubBits)
		rng := rand.New(rand.NewSource(lo ^ hi))
		for range n {
			h.Add(lo + rng.Int63n(hi-lo+1))
		}
		return h
	}
	wide := fill(0, 1<<40, 5000)
	sources := []*LogHistogram{
		fill(3000, 5000, 500),  // inside the wide range
		fill(1<<20, 1<<41, 50), // overlapping its top
		fill(0, 40, 50),        // overlapping its bottom
		NewLogHistogram(DefaultLogHistSubBits),
		fill(7, 7, 3), // one bucket
	}
	for i, src := range sources {
		dst := NewLogHistogram(DefaultLogHistSubBits)
		dst.CopyFrom(wide)
		dst.CopyFrom(src)
		want := NewLogHistogram(DefaultLogHistSubBits)
		copy(want.counts, src.counts)
		want.n, want.sum, want.min, want.max = src.n, src.sum, src.min, src.max
		if dst.n != want.n || dst.sum != want.sum || dst.min != want.min || dst.max != want.max {
			t.Fatalf("source %d: aggregates %v, want %v", i, dst, want)
		}
		for b := range dst.counts {
			if dst.counts[b] != want.counts[b] {
				t.Fatalf("source %d: bucket %d = %d, want %d", i, b, dst.counts[b], want.counts[b])
			}
		}
	}
}

// TestLogHistogramSetDelta: the SLO accountant's windowing — the delta of
// two cumulative snapshots must reproduce exactly the observations that
// arrived in between, and a source reset (cumulative count shrinking)
// must restart the window rather than produce negative buckets.
func TestLogHistogramSetDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cum := NewLogHistogram(DefaultLogHistSubBits)
	prev := NewLogHistogram(DefaultLogHistSubBits)
	window := NewLogHistogram(DefaultLogHistSubBits)

	for i := 0; i < 500; i++ {
		cum.Add(rng.Int63n(1 << 20))
	}
	prev.CopyFrom(cum)

	fresh := make([]int64, 2000)
	for i := range fresh {
		fresh[i] = int64(math.Exp(rng.NormFloat64()*2 + 9))
		cum.Add(fresh[i])
	}
	window.SetDelta(cum, prev)
	sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })
	if window.Count() != int64(len(fresh)) {
		t.Fatalf("window count %d, want %d", window.Count(), len(fresh))
	}
	var sum int64
	for _, v := range fresh {
		sum += v
	}
	if window.Sum() != sum {
		t.Fatalf("window sum %d, want %d", window.Sum(), sum)
	}
	// Bucket counts of the window must equal a direct recording; quantiles
	// then inherit the usual relative bound (min/max are bucket-edge
	// approximations, documented on SetDelta).
	direct := NewLogHistogram(DefaultLogHistSubBits)
	for _, v := range fresh {
		direct.Add(v)
	}
	for i := range window.counts {
		if window.counts[i] != direct.counts[i] {
			t.Fatalf("window bucket %d: %d vs direct %d", i, window.counts[i], direct.counts[i])
		}
	}
	relBound := 1.0 / float64(int64(1)<<DefaultLogHistSubBits)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := exactNearestRank(fresh, q)
		got := window.Quantile(q)
		tol := 2*int64(relBound*float64(exact)) + 2 // window min/max are approximate: midpoints clamp to bucket edges, not exact extremes
		if diff := got - exact; diff > tol || diff < -tol {
			t.Errorf("q=%v: window %d vs exact %d (tolerance %d)", q, got, exact, tol)
		}
	}
	if window.Min() > exactNearestRank(fresh, 0) || window.Max() < exactNearestRank(fresh, 1) {
		t.Errorf("window extremes [%d, %d] exclude the true extremes [%d, %d]",
			window.Min(), window.Max(), fresh[0], fresh[len(fresh)-1])
	}

	// Reset detection: the load generator clears its lag histogram per
	// wave; the next delta must be the fresh distribution, not garbage.
	prev.CopyFrom(cum)
	cum.Reset()
	cum.Add(42)
	cum.Add(87)
	window.SetDelta(cum, prev)
	if window.Count() != 2 || window.Min() != 42 || window.Max() != 87 {
		t.Fatalf("reset window: n=%d min=%d max=%d, want 2/42/87", window.Count(), window.Min(), window.Max())
	}

	// Empty delta: no new observations → empty window.
	prev.CopyFrom(cum)
	window.SetDelta(cum, prev)
	if window.Count() != 0 || window.Quantile(0.99) != 0 {
		t.Fatalf("empty window not empty: n=%d", window.Count())
	}
}
