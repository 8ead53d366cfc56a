package offline

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stream"
)

// OptimalUnit returns the maximum-benefit accepted set for a stream of
// unit-size slices through a server buffer of capacity B drained at rate R.
//
// Feasible accepted sets form a matroid (for B = R·D they are exactly the
// transversal matroid of unit jobs with send windows [a, a+D] on R parallel
// slots per step), so sorting slices by weight and accepting each one whose
// addition keeps the set feasible is optimal. The feasibility condition is
// the interval constraint family
//
//	for every [t1, t2]:  accepted arrivals in [t1, t2] <= R·(t2-t1+1) + B,
//
// which is maintained incrementally with a segment tree over the prefix
// function H[i] = N(i-1) - R·i (N = accepted-arrival counting function):
// the set is feasible iff max over i<j of H[j]-H[i] <= B. Accepting a slice
// with arrival a adds 1 to H[i] for all i > a, so it raises exactly the
// rises that cross the cut between a and a+1, and the largest of those is
// max H[a+1..] - min H[..a].
//
// The byte-slice model makes a frame of s units s slices with one weight
// and one arrival, so the decision is taken a run at a time: consecutive
// slices with equal (arrival, weight) stay next to each other in the
// bucket pass by weight that orders the runs, and of a run of count slices
// exactly min(count, B - cross) fit, cross being the largest rise across
// the run's cut. One run costs two range queries and one suffix add.
//
// Total time O(n + G log k + k² + G log T) for G runs of k distinct
// weights; exact (cross-validated against BruteForce and a per-slice
// reference in the tests).
func OptimalUnit(st *stream.Stream, B, R int) (*Result, error) {
	if !st.UnitSliced() {
		return nil, fmt.Errorf("offline: OptimalUnit requires unit-size slices (Lmax=%d); use OptimalFrames or Explode", st.MaxSliceSize())
	}
	if B <= 0 || R <= 0 {
		return nil, fmt.Errorf("offline: non-positive B=%d or R=%d", B, R)
	}
	res := &Result{Accepted: make([]bool, st.Len())}
	if st.Len() == 0 {
		return res, nil
	}

	// The stream's runs, merged where only a zero's sign tells weights
	// apart (a byte-sliced clip has one per arrival step), by weight
	// descending; ties by arrival then ID for determinism (any tie-break
	// yields the same total benefit, by the matroid exchange property).
	// This is the order the slices themselves would sort in, and since the
	// stream's runs are in (arrival, ID) order, a stable bucket pass by
	// weight gives it: count the runs of each weight, then place each run
	// after the heavier ones. Weights of ±0 share a bucket, as they compare
	// equal.
	all := st.Runs()
	// A clip weighted by frame type has a few weights: keep their keys and
	// counts on the stack.
	var keyBuf [8]float64
	var startBuf [9]int
	keys := distinctWeights(keyBuf[:0], all)
	start := append(startBuf[:0], make([]int, len(keys)+1)...)
	for i := 0; i < len(all); {
		r, next := mergedRun(all, i)
		start[weightRank(keys, r.Weight)+1]++
		i = next
	}
	for k := range keys {
		start[k+1] += start[k]
	}
	runs := make([]stream.Run, start[len(keys)])
	for i := 0; i < len(all); {
		r, next := mergedRun(all, i)
		k := weightRank(keys, r.Weight)
		runs[start[k]] = r
		start[k]++
		i = next
	}

	// H is indexed by i in [0, horizon+1]; H[i] = N(i-1) - R*i starts at
	// -R*i with N = 0.
	tree := newRiseTree(st.Horizon()+2, func(i int) int64 { return -int64(R) * int64(i) })

	for _, r := range runs {
		cross := tree.suffixMax(r.Arrival+1) - tree.prefixMin(r.Arrival)
		m := min(int64(B)-cross, int64(r.Count))
		if m <= 0 {
			continue
		}
		tree.addSuffix(r.Arrival+1, m)
		// The weight is added once per slice, not as m·weight, so Benefit
		// is the same float sum a slice-at-a-time greedy produces.
		for id := r.First; id < r.First+int(m); id++ {
			res.Accepted[id] = true
			res.Benefit += r.Weight
		}
		res.Bytes += int(m)
	}
	return res, nil
}

// mergedRun returns all[i] merged with the runs after it that have its
// arrival and weight, and the index past them.
func mergedRun(all []stream.Run, i int) (stream.Run, int) {
	r := all[i]
	for i++; i < len(all) && all[i].Arrival == r.Arrival && all[i].Weight == r.Weight; i++ {
		r.Count += all[i].Count
	}
	return r, i
}

// distinctWeights returns the runs' distinct weights in keys' backing
// array, highest first, with ±0 as one, kept sorted by insertion as they
// turn up.
func distinctWeights(keys []float64, runs []stream.Run) []float64 {
	for _, r := range runs {
		if k := weightRank(keys, r.Weight); k == len(keys) || keys[k] != r.Weight {
			keys = slices.Insert(keys, k, r.Weight)
		}
	}
	return keys
}

// weightRank returns the index of the first key at most w in keys, which
// are in descending order.
func weightRank(keys []float64, w float64) int {
	i, j := 0, len(keys)
	for i < j {
		if h := int(uint(i+j) >> 1); keys[h] > w {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// riseTree is a segment tree over an int64 array supporting suffix add and
// the two halves of the largest rise across a cut: prefix minimum and
// suffix maximum. lo and hi of a node cover its subtree without the adds
// recorded at its strict ancestors; lazy[node] is the add that applies to
// the node's whole subtree and is never pushed down, so all three
// operations are one leaf-to-root walk.
type riseTree struct {
	base int // power-of-two leaf count
	lo   []int64
	hi   []int64
	lazy []int64
}

// Padding leaves hold these; the quarter keeps them out of reach of any
// sum of suffix adds.
const (
	negInf = math.MinInt64 / 4
	posInf = math.MaxInt64 / 4
)

func newRiseTree(n int, init func(i int) int64) *riseTree {
	base := 1
	for base < n {
		base <<= 1
	}
	t := &riseTree{
		base: base,
		lo:   make([]int64, 2*base),
		hi:   make([]int64, 2*base),
		lazy: make([]int64, 2*base),
	}
	for i := 0; i < base; i++ {
		t.lo[base+i], t.hi[base+i] = posInf, negInf
		if i < n {
			v := init(i)
			t.lo[base+i], t.hi[base+i] = v, v
		}
	}
	for node := base - 1; node >= 1; node-- {
		t.pull(node)
	}
	return t
}

func (t *riseTree) pull(node int) {
	t.lo[node] = min(t.lo[2*node], t.lo[2*node+1]) + t.lazy[node]
	t.hi[node] = max(t.hi[2*node], t.hi[2*node+1]) + t.lazy[node]
}

func (t *riseTree) applyAdd(node int, v int64) {
	t.lo[node] += v
	t.hi[node] += v
	t.lazy[node] += v
}

// addSuffix adds v to every element with index >= from.
func (t *riseTree) addSuffix(from int, v int64) {
	p := t.base + from
	t.applyAdd(p, v)
	for ; p > 1; p >>= 1 {
		if p&1 == 0 {
			t.applyAdd(p+1, v)
		}
		t.pull(p >> 1)
	}
}

// prefixMin returns the minimum over indices 0..to.
func (t *riseTree) prefixMin(to int) int64 {
	p := t.base + to
	res := t.lo[p]
	for ; p > 1; p >>= 1 {
		if p&1 == 1 {
			res = min(res, t.lo[p-1])
		}
		res += t.lazy[p>>1]
	}
	return res
}

// suffixMax returns the maximum over indices from..n-1.
func (t *riseTree) suffixMax(from int) int64 {
	p := t.base + from
	res := t.hi[p]
	for ; p > 1; p >>= 1 {
		if p&1 == 0 {
			res = max(res, t.hi[p+1])
		}
		res += t.lazy[p>>1]
	}
	return res
}
