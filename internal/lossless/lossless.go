// Package lossless provides the lossless-smoothing counterparts that the
// paper positions its lossy results against (Section 1, "related work on
// smoothing"):
//
//   - exact zero-loss provisioning for the generic algorithm: the minimum
//     link rate for a given buffer, minimum buffer for a given rate, and
//     minimum rate for a given delay under the B = R·D law. These follow
//     from the interval characterization of feasibility (see package
//     offline): no loss occurs iff for every interval I the bytes arriving
//     in I are at most R·|I| + B;
//   - the optimal minimum-peak-rate transmission plan for stored video with
//     a client buffer (in the style of Salehi et al., IEEE/ACM ToN 1998):
//     the taut-string schedule through the corridor between the cumulative
//     playout curve and the buffer-shifted upper envelope;
//   - a simple online sliding-window smoother (in the style of Rexford et
//     al., NOSSDAV 1997) as an online lossless baseline.
package lossless

import (
	"fmt"
	"math"

	"repro/internal/stream"
)

// MinBuffer returns the smallest server/client buffer size B such that the
// generic algorithm with link rate R loses nothing on the stream: the
// maximum over all intervals of (arriving bytes − R·length), but at least
// the largest slice (a slice bigger than the buffer can never be stored).
func MinBuffer(st *stream.Stream, R int) (int, error) {
	if R <= 0 {
		return 0, fmt.Errorf("lossless: non-positive rate %d", R)
	}
	B := st.MaxSliceSize()
	if B == 0 {
		B = 1 // empty stream: any positive buffer works
	}
	cum := st.CumulativeArrivals()
	// occ(t) under work conservation = max over t1<=t of A[t1..t] - R(t-t1+1);
	// one forward Lindley pass finds the max occupancy, which is MinBuffer.
	occ := int64(0)
	prev := int64(0)
	for t := range cum {
		arr := cum[t] - prev
		prev = cum[t]
		occ += arr - int64(R)
		if occ < 0 {
			occ = 0
		}
		if occ > int64(B) {
			B = int(occ)
		}
	}
	return B, nil
}

// MinRate returns the smallest link rate R such that the generic algorithm
// with buffer B loses nothing: the maximum over all intervals [t1, t2] of
// ceil((A[t1..t2] − B)/(t2−t1+1)), but at least 1. It returns an error if
// some slice exceeds B (no rate can help).
func MinRate(st *stream.Stream, B int) (int, error) {
	if B <= 0 {
		return 0, fmt.Errorf("lossless: non-positive buffer %d", B)
	}
	if st.MaxSliceSize() > B {
		return 0, fmt.Errorf("lossless: slice of size %d exceeds buffer %d", st.MaxSliceSize(), B)
	}
	return minFeasibleRate(st.CumulativeArrivals(), func(int64) int64 { return int64(B) }), nil
}

// minFeasibleRate returns the smallest R >= 1 under which no interval I of
// the stream carries more than R·|I| + slack(R) bytes, given the prefix
// sums cum. With P[t] = cum[t] − R·(t+1) and P[−1] = 0, the interval
// [s+1, t] carries P[t] − P[s] bytes more than R·|I|, so one pass keeping
// the running minimum of P tests a rate in O(T). Feasibility is monotone
// in R (a larger rate has a larger slack and a smaller R·|I| deficit), so
// doubling finds a feasible rate and bisection the least one: O(T log R)
// for what is the maximum over all O(T²) intervals of the per-interval
// bound.
func minFeasibleRate(cum []int64, slack func(R int64) int64) int {
	feasible := func(R int64) bool {
		s, minP := slack(R), int64(0)
		for t, c := range cum {
			p := c - R*int64(t+1)
			if p-minP > s {
				return false
			}
			minP = min(minP, p)
		}
		return true
	}
	hi := int64(1)
	for !feasible(hi) {
		hi *= 2
	}
	// hi/2 failed the test (or is 0 when 1 passed at once).
	for lo := hi / 2; hi-lo > 1; {
		if mid := lo + (hi-lo)/2; feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return int(hi)
}

// MinRateForDelay returns the smallest link rate R such that the generic
// algorithm with smoothing delay D and the lawful buffer B = R·D loses
// nothing: the maximum over intervals of ceil(A[t1..t2]/(t2−t1+1+D)).
// This is the "compute the required bandwidth from the desired latency"
// calculation of the setup protocol sketched in Section 3.3.
func MinRateForDelay(st *stream.Stream, D int) (int, error) {
	if D < 0 {
		return 0, fmt.Errorf("lossless: negative delay %d", D)
	}
	// A(I) <= R·(|I|+D) for every interval I is A(I) − R·|I| <= R·D.
	R := minFeasibleRate(st.CumulativeArrivals(), func(R int64) int64 { return R * int64(D) })
	// The lawful buffer must also hold the largest slice.
	if D > 0 {
		if minB := st.MaxSliceSize(); minB > R*D {
			R = (minB + D - 1) / D
		}
	} else if st.MaxSliceSize() > R {
		R = st.MaxSliceSize()
	}
	return R, nil
}

// Segment is one constant-rate piece of a transmission plan, covering the
// steps [From, To] inclusive.
type Segment struct {
	From, To int
	Rate     float64
}

// Plan is a piecewise-constant lossless transmission schedule for a stored
// stream.
type Plan struct {
	// Segments partition the transmission interval in order.
	Segments []Segment
	// Peak is the largest segment rate.
	Peak float64
	// Startup is the playout delay the plan was computed for.
	Startup int
	// Total is the number of bytes transmitted.
	Total int64
}

// Rates expands the plan into a per-step rate series.
func (p *Plan) Rates() []float64 {
	if len(p.Segments) == 0 {
		return nil
	}
	last := p.Segments[len(p.Segments)-1].To
	out := make([]float64, last+1)
	for _, seg := range p.Segments {
		for t := seg.From; t <= seg.To; t++ {
			out[t] = seg.Rate
		}
	}
	return out
}

// OptimalStoredPlan computes the minimum-peak-rate lossless transmission
// plan for a stored stream: demand[k] bytes are played at step startup+k,
// the client buffer holds at most clientBuffer bytes, and transmission may
// begin at step 0. The plan is the taut-string (shortest-path) schedule
// through the corridor L(t) <= X(t) <= min(L(t)+clientBuffer, total); among
// all feasible schedules it minimizes the peak rate (and, classically, the
// rate variability).
func OptimalStoredPlan(demand []int, clientBuffer, startup int) (*Plan, error) {
	if clientBuffer <= 0 {
		return nil, fmt.Errorf("lossless: non-positive client buffer %d", clientBuffer)
	}
	if startup < 0 {
		return nil, fmt.Errorf("lossless: negative startup delay %d", startup)
	}
	var total int64
	for i, d := range demand {
		if d < 0 {
			return nil, fmt.Errorf("lossless: negative demand %d at index %d", d, i)
		}
		total += int64(d)
	}
	plan := &Plan{Startup: startup, Total: total}
	if total == 0 {
		return plan, nil
	}

	// Corridor over steps t = 0..Tend. lower[t] = bytes that must have
	// been transmitted by the END of step t; upper[t] = bytes that may
	// have been.
	Tend := startup + len(demand) - 1
	lower := make([]int64, Tend+1)
	upper := make([]int64, Tend+1)
	var played int64
	for t := 0; t <= Tend; t++ {
		if t >= startup {
			played += int64(demand[t-startup])
		}
		lower[t] = played
		upper[t] = played + int64(clientBuffer)
		if upper[t] > total {
			upper[t] = total
		}
	}

	// Taut string via the funnel ("windshield wiper") sweep: from the
	// current apex, narrow the wedge of feasible slopes corner by corner;
	// when a corner falls outside the wedge, the path bends at the corner
	// that defined the violated side, which becomes the new apex.
	t0, x0 := -1, float64(0)
	for t0 < Tend {
		loSlope, hiSlope := math.Inf(-1), math.Inf(1)
		loT, hiT := t0+1, t0+1
		bendT := -1
		bendX := 0.0
		for t := t0 + 1; t <= Tend; t++ {
			dt := float64(t - t0)
			sLo := (float64(lower[t]) - x0) / dt
			sHi := (float64(upper[t]) - x0) / dt
			if sLo > hiSlope {
				// The lower envelope rises above the wedge: the path
				// must bend upward at the corner that set hiSlope.
				bendT, bendX = hiT, float64(upper[hiT])
				break
			}
			if sHi < loSlope {
				// The upper envelope dips below the wedge: bend
				// downward at the corner that set loSlope.
				bendT, bendX = loT, float64(lower[loT])
				break
			}
			if sLo >= loSlope {
				loSlope, loT = sLo, t
			}
			if sHi <= hiSlope {
				hiSlope, hiT = sHi, t
			}
		}
		if bendT < 0 {
			// The wedge survived to the end of the corridor, where
			// lower == upper == total: a single straight segment.
			bendT, bendX = Tend, float64(total)
		}
		rate := (bendX - x0) / float64(bendT-t0)
		if rate < 0 {
			rate = 0 // numerically impossible for monotone envelopes; guard anyway
		}
		plan.Segments = append(plan.Segments, Segment{From: t0 + 1, To: bendT, Rate: rate})
		if rate > plan.Peak {
			plan.Peak = rate
		}
		t0, x0 = bendT, bendX
	}
	return plan, nil
}

// MinPeakLowerBound returns the information-theoretic lower bound on the
// peak rate of any lossless schedule for the stored-plan setting: the
// maximum over t1 < t2 of (L(t2) − U(t1)) / (t2 − t1), where L and U are
// the corridor envelopes of OptimalStoredPlan (with U(-1) = 0). The taut
// string achieves it.
func MinPeakLowerBound(demand []int, clientBuffer, startup int) float64 {
	var total int64
	for _, d := range demand {
		total += int64(d)
	}
	if total == 0 {
		return 0
	}
	Tend := startup + len(demand) - 1
	lower := make([]int64, Tend+1)
	upper := make([]int64, Tend+2) // index shifted by 1; upper[0] = U(-1) = 0
	var played int64
	for t := 0; t <= Tend; t++ {
		if t >= startup {
			played += int64(demand[t-startup])
		}
		lower[t] = played
		u := played + int64(clientBuffer)
		if u > total {
			u = total
		}
		upper[t+1] = u
	}
	best := 0.0
	for t1 := -1; t1 < Tend; t1++ {
		u := upper[t1+1]
		for t2 := t1 + 1; t2 <= Tend; t2++ {
			if need := float64(lower[t2]-u) / float64(t2-t1); need > best {
				best = need
			}
		}
	}
	return best
}

// WindowSmoother is a simple online lossless smoother: it keeps a backlog
// of arrived-but-unsent bytes and transmits at rate ceil(backlog/window)
// each step, spreading every burst over the next `window` steps. It is the
// "sliding window" baseline from the online lossless smoothing literature;
// its peak rate decreases with the window at the cost of delay.
type WindowSmoother struct {
	window  int
	backlog int64
}

// NewWindowSmoother returns a smoother with the given window (>= 1).
func NewWindowSmoother(window int) (*WindowSmoother, error) {
	if window < 1 {
		return nil, fmt.Errorf("lossless: window must be >= 1, got %d", window)
	}
	return &WindowSmoother{window: window}, nil
}

// Step accepts the bytes arriving this step and returns the bytes to send.
func (w *WindowSmoother) Step(arrived int) int {
	w.backlog += int64(arrived)
	send := (w.backlog + int64(w.window) - 1) / int64(w.window)
	w.backlog -= send
	return int(send)
}

// Backlog returns the bytes currently buffered.
func (w *WindowSmoother) Backlog() int64 { return w.backlog }

// SmoothStream runs the smoother over a whole stream and returns the
// per-step send series, its peak, and the maximum backlog (server buffer
// requirement).
func (w *WindowSmoother) SmoothStream(st *stream.Stream) (sends []int, peak int, maxBacklog int64) {
	for t := 0; t <= st.Horizon() || w.backlog > 0; t++ {
		send := w.Step(st.BytesAt(t))
		sends = append(sends, send)
		if send > peak {
			peak = send
		}
		if w.backlog > maxBacklog {
			maxBacklog = w.backlog
		}
	}
	return sends, peak, maxBacklog
}
