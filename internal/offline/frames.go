package offline

import (
	"fmt"
	"math"

	"repro/internal/stream"
)

// OptimalFrames returns the maximum-benefit accepted set for a stream of
// atomic (indivisible) slices of arbitrary sizes through a server buffer of
// capacity B drained at rate R — the whole-frame-slice model of the paper's
// Figures 5 and 6.
//
// Dynamic program: process steps in order; within a step, decide
// accept/reject for each arriving slice; the state is the interim buffer
// occupancy (carried occupancy plus accepted arrivals so far this step),
// which may legally reach B+R because R bytes leave before the end-of-step
// capacity check (Eqs. 2–3 of the paper). After the step's arrivals the
// occupancy drains by min(R, occ). dp[o] is the best benefit over
// histories ending in interim occupancy o.
//
// Time O(n·(B+R)), memory O((n+T)·(B+R) bits) for choice reconstruction.
// Exact: drop-at-arrival and work conservation are WLOG (see package doc),
// so feasibility is fully captured by the occupancy recursion.
func OptimalFrames(st *stream.Stream, B, R int) (*Result, error) {
	if B <= 0 || R <= 0 {
		return nil, fmt.Errorf("offline: non-positive B=%d or R=%d", B, R)
	}
	n := st.Len()
	res := &Result{Accepted: make([]bool, n)}
	if n == 0 {
		return res, nil
	}

	capMax := B + R
	reject := math.Inf(-1)
	dp := make([]float64, capMax+1)
	next := make([]float64, capMax+1)
	for i := 1; i <= capMax; i++ {
		dp[i] = reject
	}

	// choice[k] is a bitset over post-accept occupancy: bit o set means the
	// optimal way to be at interim occupancy o just after considering
	// slice k is to accept it.
	choice := make([][]uint64, n)
	words := (capMax + 64) / 64
	// drainFrom0[t] is the pre-drain occupancy that yields post-drain 0
	// optimally at step t (only the o' == 0 target is ambiguous).
	horizon := st.Horizon()
	drainFrom0 := make([]int, horizon+1)

	for t := 0; t <= horizon; t++ {
		for _, r := range st.RunsAt(t) {
			for id := r.First; id < r.End(); id++ {
				bits := make([]uint64, words)
				choice[id] = bits
				if r.Size > B {
					// Never acceptable; dp unchanged (reject forced).
					continue
				}
				// Accept transitions shift occupancy up by Size; process
				// descending so each slice is considered once.
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
		// Drain: post = max(0, o - R); post-drain occupancy must be <= B,
		// which holds automatically since o <= B+R.
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

	// Best final state: any occupancy (the buffer drains freely after the
	// last arrival with no further constraints).
	bestOcc, bestVal := 0, dp[0]
	for o := 1; o <= capMax; o++ {
		if dp[o] > bestVal {
			bestVal = dp[o]
			bestOcc = o
		}
	}
	res.Benefit = bestVal

	// Backtrack. Walk steps in reverse; undo the drain (deterministic for
	// post > 0, recorded for post == 0), then the per-slice decisions in
	// reverse arrival order.
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
	return res, nil
}
