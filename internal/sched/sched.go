// Package sched defines the representation of a smoothing schedule — the
// output of a simulation run — together with its performance metrics
// (Definition 2.4 of the paper) and a validator that checks that a recorded
// schedule obeys the model of Section 2: causality, FIFO transmission,
// link-rate and buffer-capacity constraints, no preemption, and the
// real-time property (all played slices have identical sojourn time P+D).
//
// The paper gives every slice its own send, play and drop times. A schedule
// stores them per span of consecutive slice IDs that share one fate (see
// Outcome), so its size and the cost of its metrics follow the number of
// distinct fates, not the number of slices; a byte-sliced frame that is
// sent in one step and played in another is one span.
package sched

import (
	"fmt"

	"repro/internal/stream"
)

// None marks an event that never happened (the paper's "time = infinity").
const None = -1

// Params records the resource parameters a schedule was produced with.
type Params struct {
	// ServerBuffer is B_s, the server buffer capacity in bytes.
	ServerBuffer int
	// ClientBuffer is B_c, the client buffer capacity in bytes.
	ClientBuffer int
	// Rate is R, the link rate in bytes per step.
	Rate int
	// Delay is D, the common smoothing delay of all played slices.
	Delay int
	// LinkDelay is P, the constant per-byte propagation delay of the link.
	LinkDelay int
}

// Validate checks the parameters for basic sanity.
func (p Params) Validate() error {
	switch {
	case p.ServerBuffer <= 0:
		return fmt.Errorf("sched: non-positive server buffer %d", p.ServerBuffer)
	case p.ClientBuffer <= 0:
		return fmt.Errorf("sched: non-positive client buffer %d", p.ClientBuffer)
	case p.Rate <= 0:
		return fmt.Errorf("sched: non-positive link rate %d", p.Rate)
	case p.Delay < 0:
		return fmt.Errorf("sched: negative smoothing delay %d", p.Delay)
	case p.LinkDelay < 0:
		return fmt.Errorf("sched: negative link delay %d", p.LinkDelay)
	}
	return nil
}

// DropSite identifies where a slice was discarded.
type DropSite uint8

const (
	// SiteNone means the slice was not dropped (it was played).
	SiteNone DropSite = iota
	// SiteServer means the server discarded the slice before any of its
	// bytes entered the link (overflow or proactive drop).
	SiteServer
	// SiteClient means the client discarded the slice: either its buffer
	// overflowed, or the slice missed its playback deadline (some bytes
	// were still in the server buffer or in transit at play time).
	SiteClient
)

// String returns "none", "server" or "client".
func (d DropSite) String() string {
	switch d {
	case SiteServer:
		return "server"
	case SiteClient:
		return "client"
	default:
		return "none"
	}
}

// Outcome records what happened to the slices [First, End), which share
// one fate: when their transmission started and finished, when they were
// dropped, and when they were played. Exactly one of {played, dropped}
// holds for every slice of a terminated schedule.
type Outcome struct {
	// First and End delimit the slice IDs [First, End) the outcome covers.
	First, End int
	// SendStart is ST of each slice's first byte, or None.
	SendStart int
	// SendEnd is ST of each slice's last byte, or None. A slice whose
	// transmission started is never preempted at the server, so
	// SendStart != None implies SendEnd != None in a terminated schedule
	// — even when the client ends up discarding the slice.
	SendEnd int
	// DropTime is DT(s), or None if the slices were never dropped.
	DropTime int
	// DropSite says which side discarded the slices, if any. Server drops
	// never have a send span; client drops may (their bytes crossed the
	// link but arrived late or overflowed the client buffer).
	DropSite DropSite
	// PlayTime is PT(s), or None if the slices were never played.
	PlayTime int
}

// Played reports whether the slices were delivered to the playout device.
func (o Outcome) Played() bool { return o.PlayTime != None }

// Dropped reports whether the slices were discarded.
func (o Outcome) Dropped() bool { return o.DropTime != None }

// Len returns the number of slices the outcome covers.
func (o Outcome) Len() int { return o.End - o.First }

// SameFate reports whether o and p record the same fate, whatever slices
// they cover.
func (o Outcome) SameFate(p Outcome) bool {
	o.First, o.End = p.First, p.End
	return o == p
}

// AppendSpan appends o to spans, an ID-ordered outcome list, extending the
// last span instead when o continues it with the same fate, so a list built
// by AppendSpan alone is maximal: adjacent spans differ in fate.
//
//smoothvet:noalloc
func AppendSpan(spans []Outcome, o Outcome) []Outcome {
	if n := len(spans); n > 0 && spans[n-1].End == o.First && spans[n-1].SameFate(o) {
		spans[n-1].End = o.End
		return spans
	}
	return append(spans, o)
}

// Schedule is the complete record of one smoothing run over a stream.
type Schedule struct {
	// Stream is the input the schedule was produced for.
	Stream *stream.Stream
	// Params are the resource parameters used.
	Params Params
	// Outcomes holds the fate of every slice as spans of consecutive IDs
	// that share one fate: sorted, gap-free, each non-empty, and together
	// covering [0, Stream.Len()). At finds the span of one ID.
	Outcomes []Outcome
	// SentPerStep[t] is |S(t)|, bytes submitted to the link at step t.
	SentPerStep []int
	// ServerOcc[t] is |Bs(t)|, bytes stored at the server at the end of
	// step t.
	ServerOcc []int
	// ClientOcc[t] is |Bc(t)|, bytes stored at the client at the end of
	// step t.
	ClientOcc []int
	// Algorithm names the policy/algorithm that produced the schedule.
	Algorithm string
}

// At returns the outcome span holding slice id. It panics if no span holds
// it.
func (s *Schedule) At(id int) Outcome {
	lo, hi := 0, len(s.Outcomes)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); s.Outcomes[mid].End > id {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(s.Outcomes) || s.Outcomes[lo].First > id {
		panic(fmt.Sprintf("sched: no outcome for slice %d", id))
	}
	return s.Outcomes[lo]
}

// Walk calls fn for every outcome span cut at the stream's run boundaries,
// in ID order: all slices of one call share fate, arrival, size and
// weight, and r.First and r.Count delimit them. The outcome list must have
// the shape Validate requires.
func (s *Schedule) Walk(fn func(o Outcome, r stream.Run)) {
	runs := s.Stream.Runs()
	k := 0
	for _, o := range s.Outcomes {
		for id := o.First; id < o.End; {
			for runs[k].End() <= id {
				k++
			}
			r := runs[k]
			end := min(o.End, r.End())
			r.First, r.Count = id, end-id
			fn(o, r)
			id = end
		}
	}
}

// Throughput returns the total number of bytes played out (Definition 2.4).
func (s *Schedule) Throughput() int {
	n := 0
	s.Walk(func(o Outcome, r stream.Run) {
		if o.Played() {
			n += r.Bytes()
		}
	})
	return n
}

// Benefit returns the total weight of played slices (Definition 2.6): the
// sum of their weights taken one slice at a time in ID order, so its bits
// do not depend on how the slices are grouped into spans. It walks each
// played span piece by piece, where a piece is the span's overlap with
// one run of equal weight, and addWeight adds the piece's slices one at a
// time.
func (s *Schedule) Benefit() float64 {
	var w float64
	runs, k := s.Stream.Runs(), 0
	for i := range s.Outcomes {
		o := &s.Outcomes[i]
		if !o.Played() {
			continue
		}
		for id := o.First; id < o.End; {
			for runs[k].End() <= id {
				k++
			}
			end := min(o.End, runs[k].End())
			w = addWeight(w, runs[k].Weight, end-id)
			id = end
		}
	}
	return w
}

// addWeight returns w plus count slices of weight x, added one at a time.
func addWeight(w, x float64, count int) float64 {
	for range count {
		w += x
	}
	return w
}

// DroppedSlices returns the number of dropped slices.
func (s *Schedule) DroppedSlices() int {
	n := 0
	for _, o := range s.Outcomes {
		if o.Dropped() {
			n += o.Len()
		}
	}
	return n
}

// DroppedAt returns the number of slices dropped at the given site.
func (s *Schedule) DroppedAt(site DropSite) int {
	n := 0
	for _, o := range s.Outcomes {
		if o.Dropped() && o.DropSite == site {
			n += o.Len()
		}
	}
	return n
}

// WeightedLoss returns (offered weight - played weight) / offered weight,
// the "weighted loss" plotted in Figures 2, 3, 5 and 6 of the paper.
// It returns 0 for a stream with zero total weight.
func (s *Schedule) WeightedLoss() float64 {
	total := s.Stream.TotalWeight()
	if total == 0 {
		return 0
	}
	return (total - s.Benefit()) / total
}

// ByteLoss returns the fraction of offered bytes not played.
func (s *Schedule) ByteLoss() float64 {
	total := s.Stream.TotalBytes()
	if total == 0 {
		return 0
	}
	return float64(total-s.Throughput()) / float64(total)
}

// ServerBufferRequirement returns the least upper bound on |Bs(t)|.
func (s *Schedule) ServerBufferRequirement() int { return maxOf(s.ServerOcc) }

// ClientBufferRequirement returns the least upper bound on |Bc(t)|.
func (s *Schedule) ClientBufferRequirement() int { return maxOf(s.ClientOcc) }

// LinkRateRequirement returns the least upper bound on |S(t)|.
func (s *Schedule) LinkRateRequirement() int { return maxOf(s.SentPerStep) }

// CumulativeSent returns prefix sums of SentPerStep; element t is the total
// number of bytes submitted to the link in steps [0, t]. Used to compare
// schedules per Lemma 3.1 and Theorem 3.5.
func (s *Schedule) CumulativeSent() []int64 {
	cum := make([]int64, len(s.SentPerStep))
	var run int64
	for t, n := range s.SentPerStep {
		run += int64(n)
		cum[t] = run
	}
	return cum
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// String summarizes the schedule in one line.
func (s *Schedule) String() string {
	return fmt.Sprintf("%s: B=%d R=%d D=%d P=%d played=%dB/%dB benefit=%.4g loss=%.2f%%",
		s.Algorithm, s.Params.ServerBuffer, s.Params.Rate, s.Params.Delay, s.Params.LinkDelay,
		s.Throughput(), s.Stream.TotalBytes(), s.Benefit(), 100*s.WeightedLoss())
}
