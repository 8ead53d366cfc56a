package sched

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/stream"
)

// RateStats summarizes the transmission-rate process of a schedule — the
// quantity lossless smoothing work (Salehi et al.) minimizes and a useful
// companion metric for lossy schedules.
type RateStats struct {
	// Mean and StdDev are over the active period (first to last step with
	// any transmission).
	Mean, StdDev float64
	// CV is StdDev/Mean (0 if Mean is 0).
	CV float64
	// Peak is the largest per-step send.
	Peak int
	// Utilization is Mean/Rate: how much of the reserved link the
	// schedule actually used.
	Utilization float64
}

// RateStats computes transmission-rate statistics over the schedule's
// active period.
func (s *Schedule) RateStats() RateStats {
	first, last := -1, -1
	for t, n := range s.SentPerStep {
		if n > 0 {
			if first < 0 {
				first = t
			}
			last = t
		}
	}
	var rs RateStats
	if first < 0 {
		return rs
	}
	active := s.SentPerStep[first : last+1]
	var sum float64
	for _, n := range active {
		sum += float64(n)
		if n > rs.Peak {
			rs.Peak = n
		}
	}
	rs.Mean = sum / float64(len(active))
	var ss float64
	for _, n := range active {
		d := float64(n) - rs.Mean
		ss += d * d
	}
	rs.StdDev = math.Sqrt(ss / float64(len(active)))
	if rs.Mean > 0 {
		rs.CV = rs.StdDev / rs.Mean
	}
	if s.Params.Rate > 0 {
		rs.Utilization = rs.Mean / float64(s.Params.Rate)
	}
	return rs
}

// DropsPerStep returns the number of bytes dropped at each step (both
// sites), indexed like SentPerStep. Steps beyond the recorded horizon are
// folded into the last step.
func (s *Schedule) DropsPerStep() []int {
	out := make([]int, len(s.SentPerStep))
	if len(out) == 0 {
		return out
	}
	s.Walk(func(o Outcome, r stream.Run) {
		if o.Dropped() {
			out[min(max(o.DropTime, 0), len(out)-1)] += r.Bytes()
		}
	})
	return out
}

// Timeline renders an ASCII occupancy chart: server occupancy ('#'), with
// drop steps marked 'x' on the baseline, downsampled to the given width.
// It is a quick diagnostic for cmd/smoothsim, not a plotting library.
func (s *Schedule) Timeline(width, height int) string {
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 10
	}
	T := len(s.ServerOcc)
	if T == 0 {
		return "(empty schedule)\n"
	}
	drops := s.DropsPerStep()
	// Downsample to width buckets by max.
	occ := make([]int, width)
	dropped := make([]bool, width)
	for t := 0; t < T; t++ {
		b := t * width / T
		if s.ServerOcc[t] > occ[b] {
			occ[b] = s.ServerOcc[t]
		}
		if drops[t] > 0 {
			dropped[b] = true
		}
	}
	maxOcc := s.Params.ServerBuffer
	if maxOcc < 1 {
		maxOcc = 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "server occupancy 0..%d over %d steps ('x' = drops)\n", maxOcc, T)
	for row := height; row >= 1; row-- {
		threshold := maxOcc * row / height
		sb.WriteString("  |")
		for b := 0; b < width; b++ {
			if occ[b] >= threshold && threshold > 0 {
				sb.WriteByte('#')
			} else {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("  +")
	for b := 0; b < width; b++ {
		if dropped[b] {
			sb.WriteByte('x')
		} else {
			sb.WriteByte('-')
		}
	}
	sb.WriteByte('\n')
	return sb.String()
}

// Report renders a multi-line human-readable summary of the schedule.
func (s *Schedule) Report() string {
	rs := s.RateStats()
	var sb strings.Builder
	fmt.Fprintf(&sb, "algorithm:     %s\n", s.Algorithm)
	fmt.Fprintf(&sb, "parameters:    B=%d Bc=%d R=%d D=%d P=%d\n",
		s.Params.ServerBuffer, s.Params.ClientBuffer, s.Params.Rate, s.Params.Delay, s.Params.LinkDelay)
	fmt.Fprintf(&sb, "throughput:    %d/%d bytes (%.2f%% loss)\n",
		s.Throughput(), s.Stream.TotalBytes(), 100*s.ByteLoss())
	fmt.Fprintf(&sb, "benefit:       %.6g/%.6g (%.2f%% weighted loss)\n",
		s.Benefit(), s.Stream.TotalWeight(), 100*s.WeightedLoss())
	fmt.Fprintf(&sb, "drops:         %d slices (server %d, client %d)\n",
		s.DroppedSlices(), s.DroppedAt(SiteServer), s.DroppedAt(SiteClient))
	fmt.Fprintf(&sb, "requirements:  server %d, client %d, link %d\n",
		s.ServerBufferRequirement(), s.ClientBufferRequirement(), s.LinkRateRequirement())
	fmt.Fprintf(&sb, "link process:  mean %.2f, sd %.2f (CV %.3f), peak %d, utilization %.1f%%\n",
		rs.Mean, rs.StdDev, rs.CV, rs.Peak, 100*rs.Utilization)
	return sb.String()
}
