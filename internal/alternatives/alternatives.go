// Package alternatives implements the classical alternatives to smoothing
// that the paper's introduction enumerates, so they can be compared on the
// same traces under the same question — how much bandwidth does a given
// latency budget buy?
//
//   - Truncation: no buffer, no delay; each frame is cut down to the link
//     rate on arrival ("degradation of service by truncating the stream to
//     the link rate");
//   - Peak reservation: allocate the peak frame rate; zero loss, zero
//     smoothing delay, massive under-utilization;
//   - Renegotiated CBR (RCBR-style): a constant rate per window of W steps,
//     renegotiated at window boundaries with one window of lookahead;
//     lossless, delay W, plus a count of renegotiations (each of which
//     costs signalling in a real network);
//   - Lossy smoothing (this paper): the generic algorithm with B = R·D;
//     MinRateForLoss finds the bandwidth needed to keep the weighted loss
//     under a target;
//   - Lossless smoothing: package lossless's exact MinRateForDelay.
package alternatives

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/stream"
)

// TruncationResult reports the outcome of bufferless truncation.
type TruncationResult struct {
	// PlayedBytes and Benefit are the delivered totals.
	PlayedBytes int
	Benefit     float64
	// ByteLoss and WeightedLoss are fractions of the offered stream.
	ByteLoss     float64
	WeightedLoss float64
}

// Truncation transmits each frame in its arrival step only: the most
// valuable whole slices that fit in R bytes survive; the rest of the frame
// is discarded. There is no buffer and no smoothing delay.
func Truncation(st *stream.Stream, R int) (*TruncationResult, error) {
	if R <= 0 {
		return nil, fmt.Errorf("alternatives: non-positive rate %d", R)
	}
	res := &TruncationResult{}
	var order []stream.Run
	for t := 0; t <= st.Horizon(); t++ {
		// Highest byte value first; ties to smaller ID for determinism.
		// Runs are disjoint ID ranges of one byte value each, so ordering
		// them orders their slices.
		order = append(order[:0], st.RunsAt(t)...)
		slices.SortStableFunc(order, func(a, b stream.Run) int { return cmp.Compare(b.ByteValue(), a.ByteValue()) })
		budget := R
		for _, r := range order {
			for range r.Count {
				if r.Size <= budget {
					budget -= r.Size
					res.PlayedBytes += r.Size
					res.Benefit += r.Weight
				}
			}
		}
	}
	if tb := st.TotalBytes(); tb > 0 {
		res.ByteLoss = float64(tb-res.PlayedBytes) / float64(tb)
	}
	if tw := st.TotalWeight(); tw > 0 {
		res.WeightedLoss = (tw - res.Benefit) / tw
	}
	return res, nil
}

// PeakRate returns the rate a peak-allocation reservation needs: the
// largest frame size (everything must cross the link in its arrival step).
func PeakRate(st *stream.Stream) int { return st.PeakFrameBytes() }

// RenegotiatedPlan is a piecewise-CBR transmission plan with one rate per
// window.
type RenegotiatedPlan struct {
	// Window is the renegotiation interval W (also the playout delay).
	Window int
	// Rates holds one rate per window, covering the whole stream.
	Rates []int
	// Renegotiations counts rate *changes* between consecutive windows.
	Renegotiations int
	// Peak and Mean summarize the reserved rates.
	Peak int
	Mean float64
	// Buffer is the server buffer the plan needs.
	Buffer int
}

// Renegotiate computes the RCBR-style plan: for each window of W steps the
// reserved rate is just enough to clear the window's arrivals plus any
// carried backlog, i.e. ceil((backlog + arrivals)/W). With one window of
// lookahead this is lossless and every byte leaves the server within W
// steps of its arrival window's end, so playout delay 2W is always safe
// (W of lookahead + W of draining).
func Renegotiate(st *stream.Stream, window int) (*RenegotiatedPlan, error) {
	if window <= 0 {
		return nil, fmt.Errorf("alternatives: non-positive window %d", window)
	}
	plan := &RenegotiatedPlan{Window: window}
	if st.Horizon() < 0 {
		return plan, nil
	}
	backlog := 0
	maxBacklog := 0
	var totalRate int64
	prev := -1
	for start := 0; start <= st.Horizon(); start += window {
		arr := 0
		for t := start; t < start+window; t++ {
			arr += st.BytesAt(t)
		}
		need := backlog + arr
		rate := (need + window - 1) / window
		plan.Rates = append(plan.Rates, rate)
		if rate != prev && prev >= 0 {
			plan.Renegotiations++
		}
		prev = rate
		if rate > plan.Peak {
			plan.Peak = rate
		}
		totalRate += int64(rate)
		sent := rate * window
		if sent > need {
			sent = need
		}
		backlog = need - sent
		if need > maxBacklog {
			maxBacklog = need
		}
	}
	plan.Buffer = maxBacklog
	if len(plan.Rates) > 0 {
		plan.Mean = float64(totalRate) / float64(len(plan.Rates))
	}
	return plan, nil
}

// MinRateForLoss returns the smallest link rate R such that the generic
// algorithm with the greedy policy, B = R·D for the given delay, keeps the
// weighted loss at or below target (a fraction in [0, 1)). The search is
// binary over R up to the peak frame rate (at which truncation-free
// delivery is trivially lossless) with a final verification; weighted loss
// under greedy is monotone non-increasing in R on real traces, and the
// verification guards the corner cases.
func MinRateForLoss(st *stream.Stream, delay int, target float64) (int, error) {
	if delay <= 0 {
		return 0, fmt.Errorf("alternatives: non-positive delay %d", delay)
	}
	if target < 0 || target >= 1 {
		return 0, fmt.Errorf("alternatives: loss target %v outside [0, 1)", target)
	}
	r := core.AcquireRunner()
	defer core.ReleaseRunner(r)
	lossAt := func(R int) (float64, error) {
		s, err := r.Run(st, core.Config{
			ServerBuffer: R * delay,
			Rate:         R,
			Delay:        delay,
			Policy:       drop.Greedy,
		})
		if err != nil {
			return 0, err
		}
		return s.WeightedLoss(), nil
	}
	lo, hi := 1, st.PeakFrameBytes()
	if hi < 1 {
		hi = 1
	}
	// Ensure hi actually meets the target (it does: with R = peak every
	// frame clears in its own step), then shrink.
	for lo < hi {
		mid := (lo + hi) / 2
		loss, err := lossAt(mid)
		if err != nil {
			return 0, err
		}
		if loss <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	loss, err := lossAt(lo)
	if err != nil {
		return 0, err
	}
	// Monotonicity guard: scan upward past any local non-monotonicity.
	for loss > target && lo < st.PeakFrameBytes() {
		lo++
		loss, err = lossAt(lo)
		if err != nil {
			return 0, err
		}
	}
	if loss > target {
		return 0, fmt.Errorf("alternatives: no rate up to the peak meets target %v", target)
	}
	return lo, nil
}
