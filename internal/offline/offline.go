// Package offline computes exact optimal offline smoothing schedules, used
// as the "Optimal" baseline in the paper's Section 5 experiments and as the
// denominator of every competitive ratio in Section 4.
//
// # Model
//
// Following Section 4 of the paper, the offline problem is posed at the
// server: a FIFO buffer of capacity B drained at R bytes per step. With the
// B = R·D law and a client buffer of B, a slice accepted by the server is
// guaranteed to be played on time (Lemmas 3.3 and 3.4), so the server-side
// optimum is the system optimum.
//
// Two reductions make the problem tractable, both without loss of
// generality among real-time schedules:
//
//  1. drop-at-arrival: accepting a slice and discarding it later only
//     raises interim buffer occupancy, so an optimal schedule rejects
//     unwanted slices on arrival;
//  2. work conservation: transmitting as early as possible (FIFO) only
//     frees space earlier.
//
// A schedule is then determined by its accepted set S, and S is feasible
// if and only if the Lindley occupancy recursion
//
//	occ(t) = max(0, occ(t-1) + acc_S(t) - R) stays <= B,
//
// equivalently (by unfolding the recursion) iff for every interval
// [t1, t2]:  bytes of S arriving in [t1, t2] <= R·(t2-t1+1) + B.
//
// # Algorithms
//
//   - BruteForce enumerates accepted sets; exponential, the test oracle.
//   - OptimalUnit handles unit-size slices: the feasible sets form a
//     matroid (for B = R·D they are the transversal matroid of unit jobs
//     with windows [a, a+D] on R machines), so greedy-by-weight with an
//     exact independence test is optimal. The test uses a segment tree
//     over the interval constraints and runs in O(log T) per run of
//     consecutive slices with one arrival and one weight.
//   - OptimalFrames handles atomic variable-size slices by dynamic
//     programming over (time, occupancy), over the reachable occupancies
//     only; exact in O(n·(B+R)) time at worst.
package offline

import (
	"fmt"

	"repro/internal/stream"
)

// Result describes an optimal accepted set.
type Result struct {
	// Benefit is the total weight of accepted slices.
	Benefit float64
	// Bytes is the total size of accepted slices.
	Bytes int
	// Accepted[id] reports whether slice id is accepted.
	Accepted []bool
}

// AcceptedIDs returns the accepted slice IDs in increasing order.
func (r *Result) AcceptedIDs() []int {
	var ids []int
	for id, ok := range r.Accepted {
		if ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// Feasible reports whether the accepted set (given as a predicate over
// slice IDs) can be scheduled through a server buffer of capacity B drained
// at rate R: it runs the Lindley occupancy recursion and checks occ <= B at
// every step. Slices larger than B are infeasible on their own.
func Feasible(st *stream.Stream, accepted func(id int) bool, B, R int) bool {
	if B <= 0 || R <= 0 {
		return false
	}
	occ := 0
	for t := 0; t <= st.Horizon(); t++ {
		for _, r := range st.RunsAt(t) {
			for id := r.First; id < r.End(); id++ {
				if accepted(id) {
					if r.Size > B {
						// A slice larger than the whole buffer can never
						// be stored (the paper assumes Lmax <= B
						// throughout).
						return false
					}
					occ += r.Size
				}
			}
		}
		occ -= R
		if occ < 0 {
			occ = 0
		}
		if occ > B {
			return false
		}
	}
	return true
}

// Verify cross-checks a Result against the stream it was computed for: the
// accepted set must be feasible for (B, R), its weight and size must match
// the recorded Benefit and Bytes, and the Accepted vector must cover every
// slice. It returns nil if everything is consistent. Tests and tools use
// it to keep optimal schedules honest end to end.
func Verify(st *stream.Stream, res *Result, B, R int) error {
	if res == nil {
		return fmt.Errorf("offline: nil result")
	}
	if len(res.Accepted) != st.Len() {
		return fmt.Errorf("offline: result covers %d slices, stream has %d", len(res.Accepted), st.Len())
	}
	var w float64
	bytes := 0
	for id, ok := range res.Accepted {
		if ok {
			sl := st.Slice(id)
			w += sl.Weight
			bytes += sl.Size
		}
	}
	if diff := w - res.Benefit; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("offline: accepted weight %v != recorded benefit %v", w, res.Benefit)
	}
	if bytes != res.Bytes {
		return fmt.Errorf("offline: accepted size %d != recorded bytes %d", bytes, res.Bytes)
	}
	if !Feasible(st, func(id int) bool { return res.Accepted[id] }, B, R) {
		return fmt.Errorf("offline: accepted set infeasible for B=%d R=%d", B, R)
	}
	return nil
}

// maxSubsetSize bounds BruteForce's input size.
const maxBruteForce = 22

// BruteForce returns the exact optimal accepted set by exhaustive search.
// It is exponential in the number of slices and refuses streams with more
// than 22 slices; it exists as the ground-truth oracle for the polynomial
// algorithms.
func BruteForce(st *stream.Stream, B, R int) (*Result, error) {
	n := st.Len()
	if n > maxBruteForce {
		return nil, fmt.Errorf("offline: brute force limited to %d slices, got %d", maxBruteForce, n)
	}
	if B <= 0 || R <= 0 {
		return nil, fmt.Errorf("offline: non-positive B=%d or R=%d", B, R)
	}
	best := &Result{Accepted: make([]bool, n)}
	cur := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		var w float64
		bytes := 0
		for i := 0; i < n; i++ {
			cur[i] = mask&(1<<i) != 0
			if cur[i] {
				sl := st.Slice(i)
				w += sl.Weight
				bytes += sl.Size
			}
		}
		if w <= best.Benefit && !(best.Benefit == 0 && w == 0) {
			continue
		}
		if Feasible(st, func(id int) bool { return cur[id] }, B, R) {
			if w > best.Benefit {
				best.Benefit = w
				best.Bytes = bytes
				copy(best.Accepted, cur)
			}
		}
	}
	return best, nil
}
