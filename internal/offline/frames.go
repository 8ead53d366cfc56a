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
// Only the band 0..hi is live, where hi bounds every reachable occupancy:
// it rises by each acceptable slice's size (capped at B+R) and falls by R
// at each drain, whatever the DP values, so every dp[o] above it rejects.
// An accept pass runs over the band alone, a drain moves the window's base
// up by R instead of copying the array, and a slice's choice bitset covers
// its band. Time O(n·band + T·R) with band ≤ B+R, memory O(B+R) floats
// plus one bit per slice and occupancy in its band.
//
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
	horizon := st.Horizon()

	// The band does not depend on the DP values, so one pass sizes every
	// choice bitset. The bits of slice id are choice[off[id]:off[id+1]]:
	// bit o set means the optimal way to be at interim occupancy o just
	// after considering the slice is to accept it.
	off := make([]int, n+1)
	hi := 0
	for t := 0; t <= horizon; t++ {
		for _, r := range st.RunsAt(t) {
			for id := r.First; id < r.End(); id++ {
				words := 0
				if r.Size <= B {
					hi = min(capMax, hi+r.Size)
					words = hi/64 + 1
				}
				off[id+1] = off[id] + words
			}
		}
		hi = max(0, hi-R)
	}
	choice := make([]uint64, off[n])

	// dp is win[base : base+capMax+1]. Two windows' worth of room lets the
	// drain move base up by R; the live band moves back to the front only
	// once every (B+R+1)/R steps or so.
	win := make([]float64, 2*(capMax+1))
	base := 0
	hi = 0
	// drainFrom0[t] is the pre-drain occupancy that yields post-drain 0
	// optimally at step t (only the o' == 0 target is ambiguous).
	drainFrom0 := make([]int, horizon+1)

	for t := 0; t <= horizon; t++ {
		if base+capMax >= len(win) {
			copy(win, win[base:base+hi+1])
			base = 0
		}
		dp := win[base : base+capMax+1]
		for _, r := range st.RunsAt(t) {
			if r.Size > B {
				continue // never acceptable: dp unchanged, reject forced
			}
			for id := r.First; id < r.End(); id++ {
				top := min(capMax, hi+r.Size)
				for o := hi + 1; o <= top; o++ {
					dp[o] = reject
				}
				hi = top
				bits := choice[off[id]:off[id+1]]
				// Accept transitions shift occupancy up by Size: dst[i]
				// is dp[i+Size] and src[i] is dp[i]. Process descending
				// so each slice is considered once. A rejected source
				// needs no test: -Inf plus a weight never exceeds dst[i].
				dst := dp[r.Size : top+1]
				src := dp[:len(dst)]
				for i := len(dst) - 1; i >= 0; i-- {
					if v := src[i] + r.Weight; v > dst[i] {
						dst[i] = v
						o := i + r.Size
						bits[o/64] |= 1 << (o % 64)
					}
				}
			}
		}
		// Drain: post = max(0, o - R), which is at most B since o <= B+R.
		// Every o <= R lands on 0, where the best wins (ties to the
		// lowest o); the rest shift down by R, which moving base does.
		bestZero, bestZeroVal := -1, reject
		for o := 0; o <= min(R, hi); o++ {
			if dp[o] > bestZeroVal {
				bestZeroVal, bestZero = dp[o], o
			}
		}
		drainFrom0[t] = bestZero
		if hi > R {
			base, hi = base+R, hi-R
		} else {
			hi = 0
		}
		win[base] = bestZeroVal
	}

	// Best final state: any occupancy (the buffer drains freely after the
	// last arrival with no further constraints).
	dp := win[base : base+hi+1]
	bestOcc, bestVal := 0, dp[0]
	for o := 1; o <= hi; o++ {
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
				bits := choice[off[id]:off[id+1]]
				if o >= 0 && o/64 < len(bits) && bits[o/64]&(1<<(o%64)) != 0 {
					res.Accepted[id] = true
					res.Bytes += r.Size
					o -= r.Size
				}
			}
		}
	}
	return res, nil
}
