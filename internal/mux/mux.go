// Package mux studies statistical multiplexing of several real-time
// streams over one constant-rate link — the alternative to smoothing that
// the paper's introduction lists ("statistical multiplexing, relying on an
// assumed statistical independence of the bit rates of different streams").
// Combining it WITH smoothing is natural: K streams share one server
// buffer and one link, and because their bursts are independent, the
// shared system loses far less than K privately-partitioned systems with
// the same total resources.
//
// Two provisioning modes with identical total resources (rate R, buffer B,
// common smoothing delay D = ceil(B/R)):
//
//   - Partitioned: stream i gets a private buffer B/K drained at R/K;
//   - Shared: all slices enter one buffer B drained at R, FIFO by arrival;
//     each stream is still played out in real time at arrival + P + D.
//
// Mux reports per-stream and aggregate benefit, so fairness of the shared
// mode can be inspected alongside the multiplexing gain.
package mux

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/sched"
	"repro/internal/stream"
)

// StreamMetrics is the per-stream outcome of a multiplexed run.
type StreamMetrics struct {
	// Offered are the stream's total bytes and weight.
	OfferedBytes  int
	OfferedWeight float64
	// Played are the delivered bytes and weight.
	PlayedBytes  int
	PlayedWeight float64
}

// WeightedLoss returns the stream's weighted loss fraction.
func (m StreamMetrics) WeightedLoss() float64 {
	if m.OfferedWeight == 0 {
		return 0
	}
	return (m.OfferedWeight - m.PlayedWeight) / m.OfferedWeight
}

// Result aggregates a multiplexed run.
type Result struct {
	// PerStream holds one entry per input stream, in input order.
	PerStream []StreamMetrics
	// Mode is "shared" or "partitioned".
	Mode string
}

// Benefit returns the total delivered weight.
func (r *Result) Benefit() float64 {
	var w float64
	for _, m := range r.PerStream {
		w += m.PlayedWeight
	}
	return w
}

// OfferedWeight returns the total offered weight.
func (r *Result) OfferedWeight() float64 {
	var w float64
	for _, m := range r.PerStream {
		w += m.OfferedWeight
	}
	return w
}

// WeightedLoss returns the aggregate weighted loss fraction.
func (r *Result) WeightedLoss() float64 {
	total := r.OfferedWeight()
	if total == 0 {
		return 0
	}
	return (total - r.Benefit()) / total
}

// FairnessIndex returns Jain's fairness index of the per-stream delivered
// weight fractions: (Σx)² / (n·Σx²), where x_i is stream i's delivered
// fraction of its offered weight. 1 means perfectly equal treatment; 1/n
// means one stream got everything. Streams with no offered weight are
// skipped; an empty result returns 1.
func (r *Result) FairnessIndex() float64 {
	var sum, sumSq float64
	n := 0
	for _, m := range r.PerStream {
		if m.OfferedWeight == 0 {
			continue
		}
		x := m.PlayedWeight / m.OfferedWeight
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// Merge combines several streams into one, interleaving arrivals, and
// returns the combined stream together with origin[id] = index of the
// input stream each combined slice came from. Relative order of slices
// within one input stream is preserved.
func Merge(streams []*stream.Stream) (*stream.Stream, []int, error) {
	type rec struct {
		run    stream.Run
		origin int
	}
	var recs []rec
	for si, st := range streams {
		for _, r := range st.Runs() {
			recs = append(recs, rec{run: r, origin: si})
		}
	}
	// The Builder sorts stably by arrival, so pre-sorting the records the
	// same way keeps origin[] aligned with the assigned IDs (and leaves the
	// Builder's own sort nothing to do). One stream is in order already.
	byArrival := func(a, b rec) int { return cmp.Compare(a.run.Arrival, b.run.Arrival) }
	if !slices.IsSortedFunc(recs, byArrival) {
		slices.SortStableFunc(recs, byArrival)
	}
	b := stream.NewBuilder()
	origin := make([]int, 0, len(recs))
	for _, r := range recs {
		b.AddRun(r.run.Arrival, r.run.Count, r.run.Size, r.run.Weight)
		for range r.run.Count {
			origin = append(origin, r.origin)
		}
	}
	combined, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return combined, origin, nil
}

// Shared runs all streams through one server buffer of the given total
// size drained at the total rate, with D = ceil(B/R), and returns the
// per-stream outcome.
func Shared(streams []*stream.Stream, totalRate, totalBuffer int, policy drop.Factory) (*Result, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("mux: no streams")
	}
	combined, origin, err := Merge(streams)
	if err != nil {
		return nil, err
	}
	r := core.AcquireRunner()
	defer core.ReleaseRunner(r)
	s, err := r.Run(combined, core.Config{
		ServerBuffer: totalBuffer,
		Rate:         totalRate,
		Policy:       policy,
	})
	if err != nil {
		return nil, err
	}
	// Merged runs may hold slices of several streams, so each stream's
	// sums still take its slices one at a time, in ID order.
	res := &Result{PerStream: make([]StreamMetrics, len(streams)), Mode: "shared"}
	s.Walk(func(o sched.Outcome, run stream.Run) {
		for _, from := range origin[run.First:run.End()] {
			m := &res.PerStream[from]
			m.OfferedBytes += run.Size
			m.OfferedWeight += run.Weight
			if o.Played() {
				m.PlayedBytes += run.Size
				m.PlayedWeight += run.Weight
			}
		}
	})
	return res, nil
}

// Partitioned gives stream i a private buffer totalBuffer/K drained at
// totalRate/K (both floored, minimum 1) and runs the K systems
// independently with the same smoothing delay as the shared system would
// use, for a fair latency comparison.
func Partitioned(streams []*stream.Stream, totalRate, totalBuffer int, policy drop.Factory) (*Result, error) {
	k := len(streams)
	if k == 0 {
		return nil, fmt.Errorf("mux: no streams")
	}
	rate := totalRate / k
	if rate < 1 {
		rate = 1
	}
	buffer := totalBuffer / k
	if buffer < 1 {
		buffer = 1
	}
	delay := core.DelayFor(totalBuffer, totalRate)
	res := &Result{PerStream: make([]StreamMetrics, k), Mode: "partitioned"}
	r := core.AcquireRunner()
	defer core.ReleaseRunner(r)
	for i, st := range streams {
		s, err := r.Run(st, core.Config{
			ServerBuffer: buffer,
			Rate:         rate,
			Delay:        delay,
			ClientBuffer: rate * delay,
			Policy:       policy,
		})
		if err != nil {
			return nil, err
		}
		m := &res.PerStream[i]
		m.OfferedBytes = st.TotalBytes()
		m.OfferedWeight = st.TotalWeight()
		m.PlayedBytes = s.Throughput()
		m.PlayedWeight = s.Benefit()
	}
	return res, nil
}
