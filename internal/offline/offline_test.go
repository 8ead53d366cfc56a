package offline

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

func unitStream(rng *rand.Rand, n, horizon, maxW int) *stream.Stream {
	b := stream.NewBuilder()
	for i := 0; i < n; i++ {
		b.Add(rng.Intn(horizon), 1, float64(rng.Intn(maxW)+1))
	}
	return b.MustBuild()
}

func varStream(rng *rand.Rand, n, horizon, maxSize, maxW int) *stream.Stream {
	b := stream.NewBuilder()
	for i := 0; i < n; i++ {
		b.Add(rng.Intn(horizon), rng.Intn(maxSize)+1, float64(rng.Intn(maxW)+1))
	}
	return b.MustBuild()
}

func TestFeasibleBasics(t *testing.T) {
	st := stream.NewBuilder().
		Add(0, 1, 1).Add(0, 1, 1).Add(0, 1, 1).
		MustBuild()
	all := func(int) bool { return true }
	if !Feasible(st, all, 2, 1) {
		t.Error("3 unit slices, B=2 R=1: send 1, keep 2 — should be feasible")
	}
	if Feasible(st, all, 1, 1) {
		t.Error("3 unit slices, B=1 R=1 should overflow")
	}
	if Feasible(st, all, 0, 1) || Feasible(st, all, 1, 0) {
		t.Error("non-positive parameters accepted")
	}
	none := func(int) bool { return false }
	if !Feasible(st, none, 1, 1) {
		t.Error("empty set must be feasible")
	}
}

func TestFeasibleRejectsOversizeSlice(t *testing.T) {
	st := stream.NewBuilder().Add(0, 5, 5).MustBuild()
	if Feasible(st, func(int) bool { return true }, 4, 10) {
		t.Error("slice larger than B accepted")
	}
	if !Feasible(st, func(int) bool { return true }, 5, 1) {
		t.Error("slice of exactly B rejected")
	}
}

func TestBruteForceTiny(t *testing.T) {
	// Two heavy slices conflict with one light one.
	st := stream.NewBuilder().
		Add(0, 1, 1).
		Add(0, 1, 10).
		Add(0, 1, 10).
		MustBuild()
	// B=1, R=1: send one at step 0, keep one; third must go.
	res, err := BruteForce(st, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benefit != 20 {
		t.Errorf("benefit = %v, want 20", res.Benefit)
	}
	if res.Accepted[0] {
		t.Error("brute force kept the light slice over a heavy one")
	}
	if res.Bytes != 2 {
		t.Errorf("bytes = %d, want 2", res.Bytes)
	}
	if ids := res.AcceptedIDs(); len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("AcceptedIDs = %v, want [1 2]", ids)
	}
}

func TestBruteForceRefusesLargeInput(t *testing.T) {
	b := stream.NewBuilder()
	for i := 0; i < 25; i++ {
		b.Add(0, 1, 1)
	}
	if _, err := BruteForce(b.MustBuild(), 1, 1); err == nil {
		t.Error("brute force accepted 25 slices")
	}
	if _, err := BruteForce(stream.NewBuilder().MustBuild(), 0, 1); err == nil {
		t.Error("brute force accepted B=0")
	}
}

func TestOptimalUnitRequiresUnitSlices(t *testing.T) {
	st := stream.NewBuilder().Add(0, 2, 2).MustBuild()
	if _, err := OptimalUnit(st, 2, 1); err == nil {
		t.Error("OptimalUnit accepted a size-2 slice")
	}
}

func TestOptimalUnitEmpty(t *testing.T) {
	res, err := OptimalUnit(stream.NewBuilder().MustBuild(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benefit != 0 || res.Bytes != 0 {
		t.Errorf("empty stream optimal = %+v", res)
	}
}

func TestOptimalUnitSmoke(t *testing.T) {
	// Burst of 5, B=2, R=1: step 0 sends 1, keeps 2 -> 3 acceptable.
	b := stream.NewBuilder()
	weights := []float64{5, 1, 9, 7, 3}
	for _, w := range weights {
		b.Add(0, 1, w)
	}
	st := b.MustBuild()
	res, err := OptimalUnit(st, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benefit != 21 { // 9+7+5
		t.Errorf("benefit = %v, want 21", res.Benefit)
	}
	if res.Bytes != 3 {
		t.Errorf("bytes = %d, want 3", res.Bytes)
	}
}

func TestOptimalUnitMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := unitStream(rng, rng.Intn(12)+1, rng.Intn(6)+1, 20)
		B := rng.Intn(5) + 1
		R := rng.Intn(3) + 1
		got, err := OptimalUnit(st, B, R)
		if err != nil {
			return false
		}
		want, err := BruteForce(st, B, R)
		if err != nil {
			return false
		}
		if math.Abs(got.Benefit-want.Benefit) > 1e-9 {
			t.Logf("seed %d: unit greedy %v != brute force %v (B=%d R=%d)",
				seed, got.Benefit, want.Benefit, B, R)
			return false
		}
		// The accepted set itself must be feasible.
		return Feasible(st, func(id int) bool { return got.Accepted[id] }, B, R)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOptimalUnitMatchesBruteForceNonDivisible(t *testing.T) {
	// Exercise B not divisible by R specifically.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := unitStream(rng, rng.Intn(10)+1, rng.Intn(5)+1, 10)
		R := rng.Intn(3) + 2
		B := R*(rng.Intn(3)+1) + 1 + rng.Intn(R-1) // ensures R does not divide B
		got, err := OptimalUnit(st, B, R)
		if err != nil {
			return false
		}
		want, err := BruteForce(st, B, R)
		if err != nil {
			return false
		}
		return math.Abs(got.Benefit-want.Benefit) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOptimalFramesMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := varStream(rng, rng.Intn(10)+1, rng.Intn(6)+1, 4, 20)
		B := rng.Intn(8) + 1
		R := rng.Intn(4) + 1
		got, err := OptimalFrames(st, B, R)
		if err != nil {
			return false
		}
		want, err := BruteForce(st, B, R)
		if err != nil {
			return false
		}
		if math.Abs(got.Benefit-want.Benefit) > 1e-9 {
			t.Logf("seed %d: frames DP %v != brute force %v (B=%d R=%d)",
				seed, got.Benefit, want.Benefit, B, R)
			return false
		}
		// Reconstructed set must be feasible and match the benefit.
		var w float64
		bytes := 0
		for id, ok := range got.Accepted {
			if ok {
				w += st.Slice(id).Weight
				bytes += st.Slice(id).Size
			}
		}
		if math.Abs(w-got.Benefit) > 1e-9 || bytes != got.Bytes {
			t.Logf("seed %d: backtrack mismatch: set weight %v benefit %v bytes %d/%d",
				seed, w, got.Benefit, bytes, got.Bytes)
			return false
		}
		return Feasible(st, func(id int) bool { return got.Accepted[id] }, B, R)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// fullWidthOptimalFrames is OptimalFrames as it was before the band: every
// accept pass and drain runs over all of 0..B+R, and every slice gets a
// bitset of B+R+1 bits. Test-only reference.
func fullWidthOptimalFrames(st *stream.Stream, B, R int) *Result {
	n := st.Len()
	res := &Result{Accepted: make([]bool, n)}
	if n == 0 {
		return res
	}
	capMax := B + R
	reject := math.Inf(-1)
	dp := make([]float64, capMax+1)
	next := make([]float64, capMax+1)
	for i := 1; i <= capMax; i++ {
		dp[i] = reject
	}
	choice := make([][]uint64, n)
	words := (capMax + 64) / 64
	horizon := st.Horizon()
	drainFrom0 := make([]int, horizon+1)
	for t := 0; t <= horizon; t++ {
		for _, r := range st.RunsAt(t) {
			for id := r.First; id < r.End(); id++ {
				bits := make([]uint64, words)
				choice[id] = bits
				if r.Size > B {
					continue
				}
				for o := capMax; o >= r.Size; o-- {
					from := o - r.Size
					if dp[from] == reject {
						continue
					}
					if v := dp[from] + r.Weight; v > dp[o] {
						dp[o] = v
						bits[o/64] |= 1 << (o % 64)
					}
				}
			}
		}
		for i := range next {
			next[i] = reject
		}
		bestZero, bestZeroVal := -1, reject
		for o := 0; o <= capMax; o++ {
			if dp[o] == reject {
				continue
			}
			post := o - R
			if post <= 0 {
				if dp[o] > bestZeroVal {
					bestZeroVal = dp[o]
					bestZero = o
				}
			} else if dp[o] > next[post] {
				next[post] = dp[o]
			}
		}
		next[0] = bestZeroVal
		drainFrom0[t] = bestZero
		dp, next = next, dp
	}
	bestOcc, bestVal := 0, dp[0]
	for o := 1; o <= capMax; o++ {
		if dp[o] > bestVal {
			bestVal = dp[o]
			bestOcc = o
		}
	}
	res.Benefit = bestVal
	o := bestOcc
	for t := horizon; t >= 0; t-- {
		if o == 0 {
			o = drainFrom0[t]
		} else {
			o += R
		}
		runs := st.RunsAt(t)
		for i := len(runs) - 1; i >= 0; i-- {
			r := runs[i]
			for id := r.End() - 1; id >= r.First; id-- {
				if o >= 0 && o <= capMax && choice[id][o/64]&(1<<(o%64)) != 0 {
					res.Accepted[id] = true
					res.Bytes += r.Size
					o -= r.Size
				}
			}
		}
	}
	return res
}

// TestOptimalFramesMatchesFullWidthDP compares the banded DP with the
// full-width one on 2000 random streams of up to 30 steps, each step up to
// three runs of 1-4 slices of size 1-9 with weights whose sums round, so
// any change in the order of the additions shows in Benefit's bits. B is
// 1-14 and R 1-5, so slices larger than B, R = 1 and long runs of steps
// (which move the window's base back to the front) all occur.
func TestOptimalFramesMatchesFullWidthDP(t *testing.T) {
	weights := []float64{0.1, 0.3, 1.0 / 3, 2.5, 7, 12.7}
	rateOne, oversize := 0, 0
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := stream.NewBuilder()
		for at := rng.Intn(30); at >= 0; at-- {
			for runs := rng.Intn(4); runs > 0; runs-- {
				b.AddRun(at, 1+rng.Intn(4), 1+rng.Intn(9), weights[rng.Intn(len(weights))])
			}
		}
		st := b.MustBuild()
		B, R := 1+rng.Intn(14), 1+rng.Intn(5)
		if R == 1 {
			rateOne++
		}
		if st.MaxSliceSize() > B {
			oversize++
		}
		got, err := OptimalFrames(st, B, R)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := fullWidthOptimalFrames(st, B, R)
		for id := range want.Accepted {
			if got.Accepted[id] != want.Accepted[id] {
				t.Fatalf("seed %d B=%d R=%d: Accepted[%d] = %v, full-width DP %v",
					seed, B, R, id, got.Accepted[id], want.Accepted[id])
			}
		}
		if got.Bytes != want.Bytes {
			t.Fatalf("seed %d: Bytes = %d, full-width DP %d", seed, got.Bytes, want.Bytes)
		}
		if math.Float64bits(got.Benefit) != math.Float64bits(want.Benefit) {
			t.Fatalf("seed %d: Benefit = %v, full-width DP %v: not the same bits", seed, got.Benefit, want.Benefit)
		}
	}
	if rateOne < 200 || oversize < 200 {
		t.Errorf("R = 1 in %d and a slice > B in %d of 2000 instances, want 200 each", rateOne, oversize)
	}
}

func TestOptimalFramesAgreesWithOptimalUnitOnUnitStreams(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := unitStream(rng, rng.Intn(40)+1, rng.Intn(10)+1, 30)
		B := rng.Intn(10) + 1
		R := rng.Intn(4) + 1
		a, err := OptimalUnit(st, B, R)
		if err != nil {
			return false
		}
		b, err := OptimalFrames(st, B, R)
		if err != nil {
			return false
		}
		return math.Abs(a.Benefit-b.Benefit) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOptimalFramesOversizeSliceRejected(t *testing.T) {
	st := stream.NewBuilder().Add(0, 10, 100).Add(0, 1, 1).MustBuild()
	res, err := OptimalFrames(st, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted[0] {
		t.Error("oversize slice accepted")
	}
	if !res.Accepted[1] {
		t.Error("fitting slice rejected")
	}
	if res.Benefit != 1 {
		t.Errorf("benefit = %v, want 1", res.Benefit)
	}
}

func TestOptimalFramesEmpty(t *testing.T) {
	res, err := OptimalFrames(stream.NewBuilder().MustBuild(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benefit != 0 {
		t.Errorf("empty optimal benefit = %v", res.Benefit)
	}
}

func TestOptimalFramesErrors(t *testing.T) {
	st := stream.NewBuilder().Add(0, 1, 1).MustBuild()
	if _, err := OptimalFrames(st, 0, 1); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := OptimalFrames(st, 1, 0); err == nil {
		t.Error("R=0 accepted")
	}
	if _, err := OptimalUnit(st, 0, 1); err == nil {
		t.Error("OptimalUnit B=0 accepted")
	}
}

func TestOptimalMonotoneInBuffer(t *testing.T) {
	// Property: benefit is non-decreasing in B and in R.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := varStream(rng, rng.Intn(12)+1, rng.Intn(6)+1, 3, 10)
		B := rng.Intn(6) + 1
		R := rng.Intn(3) + 1
		a, err := OptimalFrames(st, B, R)
		if err != nil {
			return false
		}
		b, err := OptimalFrames(st, B+1, R)
		if err != nil {
			return false
		}
		c, err := OptimalFrames(st, B, R+1)
		if err != nil {
			return false
		}
		return b.Benefit >= a.Benefit-1e-9 && c.Benefit >= a.Benefit-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// checkRiseTree compares every prefix minimum and suffix maximum the tree
// answers with the naive array.
func checkRiseTree(t *testing.T, tr *riseTree, arr []int64) {
	t.Helper()
	lo := int64(math.MaxInt64)
	for i, v := range arr {
		lo = min(lo, v)
		if got := tr.prefixMin(i); got != lo {
			t.Fatalf("prefixMin(%d) = %d, want %d (array %v)", i, got, lo, arr)
		}
	}
	hi := int64(math.MinInt64)
	for i := len(arr) - 1; i >= 0; i-- {
		hi = max(hi, arr[i])
		if got := tr.suffixMax(i); got != hi {
			t.Fatalf("suffixMax(%d) = %d, want %d (array %v)", i, got, hi, arr)
		}
	}
}

// addSuffixBoth applies one suffix add to the tree and to the naive array.
func addSuffixBoth(tr *riseTree, arr []int64, from int, v int64) {
	tr.addSuffix(from, v)
	for i := from; i < len(arr); i++ {
		arr[i] += v
	}
}

func TestRiseTree(t *testing.T) {
	// Directly exercise the segment tree: array [3, 1, 4, 1, 5], whose
	// five leaves leave three padding leaves in the tree.
	arr := []int64{3, 1, 4, 1, 5}
	tr := newRiseTree(len(arr), func(i int) int64 { return arr[i] })
	checkRiseTree(t, tr, arr)
	addSuffixBoth(tr, arr, 4, -10) // [3,1,4,1,-5]: the last leaf alone
	checkRiseTree(t, tr, arr)
	addSuffixBoth(tr, arr, 0, 100) // uniform shift through the root
	checkRiseTree(t, tr, arr)
	addSuffixBoth(tr, arr, 1, -7) // an odd leaf: siblings on every level
	checkRiseTree(t, tr, arr)
	// The cut OptimalUnit asks about: the largest rise across 1|2.
	if got, want := tr.suffixMax(2)-tr.prefixMin(1), int64(97-94); got != want {
		t.Errorf("rise across cut 1|2 = %d, want %d", got, want)
	}
}

func TestRiseTreeSingleElement(t *testing.T) {
	arr := []int64{42}
	tr := newRiseTree(1, func(int) int64 { return 42 })
	checkRiseTree(t, tr, arr)
	addSuffixBoth(tr, arr, 0, -2)
	checkRiseTree(t, tr, arr)
}

func TestRiseTreeRandomAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		arr := make([]int64, n)
		for i := range arr {
			arr[i] = int64(rng.Intn(41) - 20)
		}
		tr := newRiseTree(n, func(i int) int64 { return arr[i] })
		for op := 0; op < 30; op++ {
			addSuffixBoth(tr, arr, rng.Intn(n), int64(rng.Intn(11)-5))
			checkRiseTree(t, tr, arr)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// perSliceOptimalUnit is the slice-at-a-time greedy OptimalUnit batches:
// IDs sorted by weight descending, then arrival, then ID, each accepted iff
// the accepted set stays Feasible. Quadratic; test-only.
func perSliceOptimalUnit(st *stream.Stream, B, R int) *Result {
	order := make([]int, st.Len())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := st.Slice(order[x]), st.Slice(order[y])
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.ID < b.ID
	})
	res := &Result{Accepted: make([]bool, st.Len())}
	for _, id := range order {
		res.Accepted[id] = true
		if !Feasible(st, func(id int) bool { return res.Accepted[id] }, B, R) {
			res.Accepted[id] = false
			continue
		}
		res.Benefit += st.Slice(id).Weight
		res.Bytes++
	}
	return res
}

// runStream builds a unit stream shaped like the byte-slice model: every
// arrival carries a few runs of equal-weight slices, weights repeat across
// arrivals and are mostly not representable sums (so the order of the
// float additions shows in Benefit's bits), and one arrival interleaves
// two weights as w1, w2, w1.
func runStream(rng *rand.Rand) *stream.Stream {
	weights := []float64{0.1, 0.3, 1.0 / 3, 2.5, 7, 12.7}
	b := stream.NewBuilder()
	horizon := rng.Intn(8) + 1
	for at := 0; at < horizon; at++ {
		for runs := rng.Intn(4); runs > 0; runs-- {
			w := weights[rng.Intn(len(weights))]
			for c := rng.Intn(6) + 1; c > 0; c-- {
				b.Add(at, 1, w)
			}
		}
	}
	at := rng.Intn(horizon)
	w1, w2 := weights[rng.Intn(len(weights))], weights[rng.Intn(len(weights))]
	for _, w := range []float64{w1, w2, w1} {
		for c := rng.Intn(3) + 1; c > 0; c-- {
			b.Add(at, 1, w)
		}
	}
	return b.MustBuild()
}

func TestOptimalUnitMatchesPerSliceReference(t *testing.T) {
	const streams = 2500
	nonDivisible := 0
	for seed := int64(0); seed < streams; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := runStream(rng)
		B, R := rng.Intn(14)+1, rng.Intn(4)+1
		if B%R != 0 {
			nonDivisible++
		}
		got, err := OptimalUnit(st, B, R)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := perSliceOptimalUnit(st, B, R)
		for id := range want.Accepted {
			if got.Accepted[id] != want.Accepted[id] {
				t.Fatalf("seed %d B=%d R=%d: Accepted[%d] = %v, per-slice reference %v",
					seed, B, R, id, got.Accepted[id], want.Accepted[id])
			}
		}
		if got.Bytes != want.Bytes {
			t.Fatalf("seed %d: Bytes = %d, reference %d", seed, got.Bytes, want.Bytes)
		}
		if math.Float64bits(got.Benefit) != math.Float64bits(want.Benefit) {
			t.Fatalf("seed %d: Benefit = %v, reference %v: not the same bits", seed, got.Benefit, want.Benefit)
		}
		if err := Verify(st, got, B, R); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if nonDivisible < streams/4 {
		t.Errorf("only %d of %d instances had B not divisible by R", nonDivisible, streams)
	}
}

// TestOptimalUnitBucketsManyWeights is TestOptimalUnitMatchesPerSliceReference
// on streams that draw from 96 distinct weights, so the bucket pass keeps
// both a few dozen and more than 64 weights sorted, far past the keys it
// holds on the stack. Zero weights of either sign turn up at any arrival, and
// one arrival carries +0, a positive weight and -0 as three runs: all of
// them must share one bucket, in arrival order.
func TestOptimalUnitBucketsManyWeights(t *testing.T) {
	weights := make([]float64, 96)
	for i := range weights {
		weights[i] = float64(i+1) / 7
	}
	some, many := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := stream.NewBuilder()
		horizon := rng.Intn(20) + 8
		pool := weights[:rng.Intn(len(weights)-24)+25]
		zeros, zeroes := rng.Intn(horizon), rng.Intn(4)
		for at := 0; at < horizon; at++ {
			for runs := rng.Intn(20); runs > 0; runs-- {
				w := pool[rng.Intn(len(pool))]
				if rng.Intn(4) < zeroes {
					w = math.Copysign(0, float64(rng.Intn(2)*2-1))
				}
				for c := rng.Intn(3) + 1; c > 0; c-- {
					b.Add(at, 1, w)
				}
			}
			if at == zeros {
				for _, w := range []float64{0, pool[rng.Intn(len(pool))], math.Copysign(0, -1)} {
					for c := rng.Intn(3) + 1; c > 0; c-- {
						b.Add(at, 1, w)
					}
				}
			}
		}
		st := b.MustBuild()
		distinct := map[float64]bool{}
		for _, r := range st.Runs() {
			distinct[r.Weight] = true
		}
		if len(distinct) > 64 {
			many++
		} else if len(distinct) > 24 {
			some++
		}
		B, R := rng.Intn(20)+1, rng.Intn(5)+1
		got, err := OptimalUnit(st, B, R)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := perSliceOptimalUnit(st, B, R)
		if !slices.Equal(got.Accepted, want.Accepted) || got.Bytes != want.Bytes ||
			math.Float64bits(got.Benefit) != math.Float64bits(want.Benefit) {
			t.Fatalf("seed %d B=%d R=%d: %d weights, got %d bytes, benefit %v; per-slice reference %d bytes, benefit %v",
				seed, B, R, len(distinct), got.Bytes, got.Benefit, want.Bytes, want.Benefit)
		}
	}
	if some < 50 || many < 30 {
		t.Errorf("%d of 300 streams had 25 to 64 distinct weights and %d more than 64, want 50 and 30", some, many)
	}
}

func TestVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := unitStream(rng, 20, 6, 10)
	res, err := OptimalUnit(st, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(st, res, 4, 2); err != nil {
		t.Errorf("genuine result rejected: %v", err)
	}
	// Tampering is detected.
	bad := *res
	bad.Benefit += 1
	if err := Verify(st, &bad, 4, 2); err == nil {
		t.Error("tampered benefit accepted")
	}
	bad = *res
	bad.Bytes++
	if err := Verify(st, &bad, 4, 2); err == nil {
		t.Error("tampered bytes accepted")
	}
	if err := Verify(st, nil, 4, 2); err == nil {
		t.Error("nil result accepted")
	}
	short := &Result{Accepted: make([]bool, 1)}
	if err := Verify(st, short, 4, 2); err == nil {
		t.Error("short accepted vector accepted")
	}
	// An infeasible set is detected: accept everything on a tiny buffer.
	all := &Result{Accepted: make([]bool, st.Len())}
	for i := range all.Accepted {
		all.Accepted[i] = true
		all.Benefit += st.Slice(i).Weight
		all.Bytes += st.Slice(i).Size
	}
	if err := Verify(st, all, 1, 1); err == nil {
		t.Error("infeasible set accepted")
	}
}

func TestVerifyAllOptima(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := varStream(rng, rng.Intn(12)+1, rng.Intn(6)+1, 3, 10)
		B := rng.Intn(8) + st.MaxSliceSize()
		R := rng.Intn(3) + 1
		res, err := OptimalFrames(st, B, R)
		if err != nil {
			return false
		}
		if err := Verify(st, res, B, R); err != nil {
			t.Logf("seed %d frames: %v", seed, err)
			return false
		}
		if st.UnitSliced() {
			res, err = OptimalUnit(st, B, R)
			if err != nil {
				return false
			}
			if err := Verify(st, res, B, R); err != nil {
				t.Logf("seed %d unit: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
