package stats

import (
	"fmt"
	"math/bits"
	"strings"
)

// LogHistogram is a fixed-footprint streaming histogram for non-negative
// integer observations (the load generator records step lags and stage
// timings in microseconds), in the HDR-histogram style: values below one
// sub-bucket span are counted exactly, larger values land in log-spaced
// octaves subdivided into 2^subBits linear sub-buckets. The bucket width
// at value v is at most v/2^subBits, so any quantile estimate is within a
// relative error of 1/2^subBits of an exact sorted-sample quantile (see
// Quantile). With the default 5 sub-bucket bits that bound is 1/32 ≈ 3.2%,
// at a fixed cost of (64-subBits+1)·2^subBits counters — about 15 KiB —
// regardless of how many observations are recorded.
//
// The zero value is not usable; call NewLogHistogram. A LogHistogram is
// not safe for concurrent use: the load generator keeps one per shard and
// merges them after the run.
type LogHistogram struct {
	subBits uint
	counts  []int64
	n       int64
	sum     int64
	min     int64 // exact, valid when n > 0
	max     int64 // exact
}

// DefaultLogHistSubBits is the sub-bucket resolution used by the load
// generator: quantiles are within 1/2^5 = 3.125% of exact.
const DefaultLogHistSubBits = 5

// NewLogHistogram returns an empty histogram with 2^subBits linear
// sub-buckets per octave. subBits must be in [1, 16]; out-of-range values
// panic, since the argument is a programmer-controlled constant.
func NewLogHistogram(subBits int) *LogHistogram {
	if subBits < 1 || subBits > 16 {
		panic(fmt.Sprintf("stats: invalid log-histogram subBits %d", subBits))
	}
	nOctaves := 64 - subBits + 1
	return &LogHistogram{
		subBits: uint(subBits),
		counts:  make([]int64, nOctaves<<uint(subBits)),
	}
}

// bucket maps a non-negative value to its bucket index: values below
// 2^subBits map to themselves (exact); value v >= 2^subBits with most
// significant bit m lands in octave m-subBits+1 at the sub-bucket given by
// its top subBits+1 bits.
//
//smoothvet:noalloc
func (h *LogHistogram) bucket(v int64) int {
	sub := int64(1) << h.subBits
	if v < sub {
		return int(v)
	}
	msb := uint(bits.Len64(uint64(v))) - 1
	shift := msb - h.subBits
	return int((int64(shift)+1)<<h.subBits + (v >> shift) - sub)
}

// bucketLow returns the lowest value mapping to bucket i (the inverse of
// bucket at the bucket's lower edge).
func (h *LogHistogram) bucketLow(i int) int64 {
	sub := int64(1) << h.subBits
	if int64(i) < sub {
		return int64(i)
	}
	shift := uint(int64(i)>>h.subBits) - 1
	return (int64(i) - int64(shift+1)<<h.subBits + sub) << shift
}

// bucketHigh returns the highest value mapping to bucket i.
func (h *LogHistogram) bucketHigh(i int) int64 {
	sub := int64(1) << h.subBits
	if int64(i) < sub {
		return int64(i)
	}
	shift := uint(int64(i)>>h.subBits) - 1
	return h.bucketLow(i) + (int64(1) << shift) - 1
}

// Add records one observation. Negative values clamp to zero (the load
// generator's lag rebase can produce small negatives before the anchor
// refines; they mean "on schedule").
//
//smoothvet:noalloc
func (h *LogHistogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.counts[h.bucket(v)]++
}

// Count returns the number of recorded observations.
func (h *LogHistogram) Count() int64 { return h.n }

// Sum returns the exact sum of recorded observations.
func (h *LogHistogram) Sum() int64 { return h.sum }

// Mean returns the exact mean of recorded observations (0 when empty).
func (h *LogHistogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min and Max return the exact extremes (0 when empty).
func (h *LogHistogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}
func (h *LogHistogram) Max() int64 { return h.max }

// Quantile returns the q-quantile (0 <= q <= 1) by the nearest-rank rule:
// the smallest recorded bucket whose cumulative count reaches ceil(q*n).
// Within a bucket the midpoint is returned, clamped to the exact recorded
// extremes, so the result differs from the exact nearest-rank sample
// quantile by at most a factor of 1/2^subBits. An empty histogram returns
// 0.
func (h *LogHistogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	// The extreme ranks are tracked exactly; skip the bucket walk.
	if rank == 1 {
		return h.min
	}
	if rank == h.n {
		return h.max
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			// Midpoint via the width, not the sum: low+high overflows
			// int64 in the top octaves.
			v := h.bucketLow(i) + (h.bucketHigh(i)-h.bucketLow(i))/2
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds every observation recorded in o into h. The two histograms
// must have the same sub-bucket resolution; mismatched resolutions panic.
func (h *LogHistogram) Merge(o *LogHistogram) {
	if o == nil {
		return
	}
	if o.subBits != h.subBits {
		panic(fmt.Sprintf("stats: merging log-histograms with subBits %d and %d", h.subBits, o.subBits))
	}
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// errCopyMismatch is pre-boxed so the noalloc CopyFrom can panic without
// a string-to-any conversion on its own path.
var errCopyMismatch any = "stats: CopyFrom with mismatched subBits"

// CopyFrom makes h an exact copy of o, reusing h's bucket array. The two
// histograms must have the same sub-bucket resolution; mismatched
// resolutions panic. The observability layer publishes per-shard
// snapshots through this once per tick.
//
// Every count of a histogram lies in its occupied range, the buckets of
// min through max, so the copy touches only those buckets of o and
// clears only the part of h's old range that o's range does not cover:
// its cost is the two ranges' width, not the bucket array's.
//
//smoothvet:noalloc
func (h *LogHistogram) CopyFrom(o *LogHistogram) {
	if o.subBits != h.subBits {
		panic(errCopyMismatch)
	}
	lo, hi := o.occupied()
	if plo, phi := h.occupied(); plo < phi {
		clear(h.counts[plo:max(plo, min(phi, lo))])
		clear(h.counts[min(phi, max(plo, hi)):phi])
	}
	copy(h.counts[lo:hi], o.counts[lo:hi])
	h.n, h.sum, h.min, h.max = o.n, o.sum, o.min, o.max
}

// occupied returns the half-open bucket range [lo, hi) that holds every
// nonzero count; it is empty when h is.
//
//smoothvet:noalloc
func (h *LogHistogram) occupied() (lo, hi int) {
	if h.n == 0 {
		return 0, 0
	}
	return h.bucket(h.min), h.bucket(h.max) + 1
}

// SetDelta makes h the per-bucket difference cur - prev of two cumulative
// histograms (cur must contain every observation of prev, the usual case
// for a monotonically growing distribution between two scrapes). When cur
// has fewer observations than prev the source was reset in between; the
// delta is then cur itself. The exact min/max of the window are not
// recoverable from cumulative extremes, so SetDelta derives them from the
// delta's occupied bucket edges — they retain the histogram's relative
// error bound rather than being exact.
func (h *LogHistogram) SetDelta(cur, prev *LogHistogram) {
	if cur.subBits != h.subBits || prev.subBits != h.subBits {
		panic("stats: SetDelta with mismatched subBits")
	}
	if cur.n < prev.n {
		// A delta may hold counts outside its occupied range (a source
		// reset between scrapes leaves negative ones), so clear them all
		// before CopyFrom, which clears only that range.
		h.Reset()
		h.CopyFrom(cur)
		return
	}
	h.n = cur.n - prev.n
	h.sum = cur.sum - prev.sum
	h.min, h.max = 0, 0
	first := -1
	last := -1
	for i := range h.counts {
		d := cur.counts[i] - prev.counts[i]
		h.counts[i] = d
		if d > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if h.n > 0 && first >= 0 {
		h.min = h.bucketLow(first)
		h.max = h.bucketHigh(last)
		if cur.max < h.max {
			h.max = cur.max
		}
		if h.min > h.max {
			h.min = h.max
		}
	}
}

// Reset forgets every recorded observation, retaining the bucket array.
//
//smoothvet:noalloc
func (h *LogHistogram) Reset() {
	clear(h.counts)
	h.n, h.sum, h.min, h.max = 0, 0, 0, 0
}

// String summarizes the histogram for logs.
func (h *LogHistogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d mean=%.4g p50=%d p99=%d p99.9=%d max=%d",
		h.n, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Max())
	return sb.String()
}
