package sched

import (
	"fmt"

	"repro/internal/stream"
)

// ValidationError describes a single violation of the schedule model found
// by Validate.
type ValidationError struct {
	Rule   string // short identifier of the violated rule
	Detail string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("sched: invalid schedule: %s: %s", e.Rule, e.Detail)
}

func violation(rule, format string, args ...any) error {
	return &ValidationError{Rule: rule, Detail: fmt.Sprintf(format, args...)}
}

// Validate checks that the recorded schedule is a legal real-time smoothing
// schedule per Section 2 of the paper:
//
//   - shape: the outcome spans are sorted, gap-free, non-empty and cover
//     exactly the stream's slice IDs, and the per-step series are
//     consistent in length;
//   - fate: every slice is either played or dropped, never both;
//   - causality: nothing is sent or dropped before it arrives;
//   - no preemption: a server-dropped slice has no send span, and a slice
//     that started sending finishes;
//   - link rate: at most Rate bytes are sent per step, and the recorded
//     SentPerStep is exactly accounted for by the slices' send spans;
//   - FIFO: bytes enter the link in slice-ID order with non-overlapping
//     send spans;
//   - buffers: independently recomputed server and client occupancies match
//     the recorded series and never exceed capacity;
//   - real-time: every played slice has PlayTime = Arrival + LinkDelay +
//     Delay and its last byte is received no later than that.
//
// Validate returns nil if the schedule is legal, or the first violation
// found.
func (s *Schedule) Validate() error {
	if s.Stream == nil {
		return violation("shape", "nil stream")
	}
	if err := s.Params.Validate(); err != nil {
		return err
	}
	if err := s.validateSpans(); err != nil {
		return err
	}
	if len(s.ServerOcc) != len(s.SentPerStep) || len(s.ClientOcc) != len(s.SentPerStep) {
		return violation("shape", "series lengths differ: sent=%d serverOcc=%d clientOcc=%d",
			len(s.SentPerStep), len(s.ServerOcc), len(s.ClientOcc))
	}
	if err := s.validateOutcomes(len(s.SentPerStep)); err != nil {
		return err
	}
	if err := s.validateFIFO(); err != nil {
		return err
	}
	return s.validateSeries()
}

// validateSpans checks that the outcome spans tile [0, Stream.Len()).
func (s *Schedule) validateSpans() error {
	n, end := s.Stream.Len(), 0
	for i, o := range s.Outcomes {
		switch {
		case o.First < 0 || o.End > n:
			return violation("shape", "span %d covers [%d,%d) outside the stream's [0,%d)", i, o.First, o.End, n)
		case o.End <= o.First:
			return violation("shape", "span %d [%d,%d) is empty", i, o.First, o.End)
		case o.First > end:
			return violation("shape", "gap [%d,%d) before span %d", end, o.First, i)
		case o.First < end:
			return violation("shape", "span %d [%d,%d) overlaps the span before it, which ends at %d", i, o.First, o.End, end)
		}
		end = o.End
	}
	if end != n {
		return violation("shape", "outcome spans cover [0,%d) of the stream's [0,%d)", end, n)
	}
	return nil
}

// validateOutcomes checks each slice's fate on its own. The slices of one
// Walk piece share fate and arrival, so the first of them stands for all.
func (s *Schedule) validateOutcomes(T int) (err error) {
	s.Walk(func(o Outcome, r stream.Run) {
		if err == nil {
			err = s.validateOutcome(T, r.First, r.Arrival, o)
		}
	})
	return err
}

func (s *Schedule) validateOutcome(T, id, arrival int, o Outcome) error {
	played, dropped := o.Played(), o.Dropped()
	if played == dropped {
		return violation("fate", "slice %d: played=%v dropped=%v (exactly one required)", id, played, dropped)
	}
	if dropped != (o.DropSite != SiteNone) {
		return violation("fate", "slice %d: dropped=%v but drop site %q", id, dropped, o.DropSite)
	}
	if (o.SendStart == None) != (o.SendEnd == None) {
		return violation("preemption", "slice %d: half-open send span [%d,%d]", id, o.SendStart, o.SendEnd)
	}
	if o.SendStart != None {
		if o.SendStart < arrival {
			return violation("causality", "slice %d sent at %d before arrival %d", id, o.SendStart, arrival)
		}
		if o.SendEnd < o.SendStart {
			return violation("causality", "slice %d send span [%d,%d] inverted", id, o.SendStart, o.SendEnd)
		}
		if o.SendEnd >= T {
			return violation("shape", "slice %d send end %d beyond recorded horizon %d", id, o.SendEnd, T-1)
		}
	}
	if dropped {
		if o.DropSite == SiteServer && o.SendStart != None {
			return violation("preemption", "slice %d server-dropped at %d after transmission started at %d",
				id, o.DropTime, o.SendStart)
		}
		if o.DropTime < arrival {
			return violation("causality", "slice %d dropped at %d before arrival %d", id, o.DropTime, arrival)
		}
		return nil
	}
	// Played slice.
	if o.SendStart == None {
		return violation("causality", "slice %d played but has no send span", id)
	}
	if got, want := o.PlayTime, arrival+s.Params.LinkDelay+s.Params.Delay; got != want {
		return violation("real-time", "slice %d played at %d, want arrival+P+D = %d", id, got, want)
	}
	if o.SendEnd+s.Params.LinkDelay > o.PlayTime {
		return violation("underflow", "slice %d last byte received at %d after play time %d",
			id, o.SendEnd+s.Params.LinkDelay, o.PlayTime)
	}
	return nil
}

// validateFIFO checks that transmitted slices (played or client-dropped)
// enter the link in ID order with non-overlapping send spans. Adjacent
// slices may share a boundary step; the slices of one span share theirs,
// so a span of several slices must be sent within one step.
func (s *Schedule) validateFIFO() error {
	prev := -1
	prevEnd := -1
	for _, o := range s.Outcomes {
		if o.SendStart == None {
			continue
		}
		if o.SendStart < prevEnd {
			return violation("fifo", "slice %d starts sending at %d before slice %d finishes at %d",
				o.First, o.SendStart, prev, prevEnd)
		}
		if o.Len() > 1 && o.SendStart < o.SendEnd {
			return violation("fifo", "slice %d starts sending at %d before slice %d finishes at %d",
				o.First+1, o.SendStart, o.First, o.SendEnd)
		}
		prev, prevEnd = o.End-1, o.SendEnd
	}
	return nil
}

// sendGroup is a Walk piece whose slices crossed the link: count slices of
// size bytes from first on, of which sent bytes have left the server.
type sendGroup struct {
	o                  Outcome
	first, count, size int
	sent               int
}

// validateSeries replays the byte flow implied by the outcomes and the
// recorded SentPerStep, and cross-checks the recorded occupancy series and
// the capacity limits.
func (s *Schedule) validateSeries() error {
	T := len(s.SentPerStep)
	serverOcc := make([]int, T)
	// clientDelta[t] is the change in client occupancy at step t; the
	// occupancy at the end of step t is its prefix sum.
	clientDelta := make([]int, T+1)

	// Static server residency: every slice occupies the server buffer from
	// its arrival until it starts transmission, is dropped by the server,
	// or the schedule ends (which would itself be a conservation bug,
	// caught below). Transmitted slices queue for the link replay.
	var queue []sendGroup
	s.Walk(func(o Outcome, r stream.Run) {
		until := T
		switch {
		case o.DropSite == SiteServer:
			until = o.DropTime
		case o.SendStart != None:
			until = o.SendStart
			queue = append(queue, sendGroup{o: o, first: r.First, count: r.Count, size: r.Size})
		}
		for t := r.Arrival; t < until && t < T; t++ {
			serverOcc[t] += r.Bytes()
		}
	})

	// Replay the link input in FIFO order; the recorded SentPerStep
	// dictates how many bytes leave per step.
	qi := 0
	for t := 0; t < T; t++ {
		if s.SentPerStep[t] < 0 || s.SentPerStep[t] > s.Params.Rate {
			return violation("rate", "step %d sends %d bytes, rate is %d", t, s.SentPerStep[t], s.Params.Rate)
		}
		for budget := s.SentPerStep[t]; budget > 0; {
			if qi >= len(queue) {
				return violation("conservation", "step %d sends %d bytes beyond transmitted slices", t, budget)
			}
			g := &queue[qi]
			n := min(budget, g.count*g.size-g.sent)
			// Slices whose first byte leaves now: j*size in [sent, sent+n).
			if j := (g.sent + g.size - 1) / g.size; j*g.size < g.sent+n && g.o.SendStart != t {
				return violation("span", "slice %d first byte actually sent at %d, recorded SendStart=%d",
					g.first+j, t, g.o.SendStart)
			}
			// Slices whose last byte leaves now: (j+1)*size in (sent, sent+n].
			if j := g.sent / g.size; (j+1)*g.size <= g.sent+n && g.o.SendEnd != t {
				return violation("span", "slice %d last byte actually sent at %d, recorded SendEnd=%d",
					g.first+j, t, g.o.SendEnd)
			}
			if err := s.deliver(clientDelta, g, t+s.Params.LinkDelay, n); err != nil {
				return err
			}
			g.sent += n
			budget -= n
			if g.sent == g.count*g.size {
				qi++
			}
		}
		// A slice left partly sent at the end of the step (or through a
		// step that sent nothing) keeps its residue in the server buffer.
		if qi < len(queue) {
			if g := queue[qi]; g.sent%g.size != 0 {
				serverOcc[t] += g.size - g.sent%g.size
			}
		}
	}
	if qi != len(queue) {
		return violation("conservation", "%d transmitted slices have unsent bytes at end of schedule",
			len(queue)-qi)
	}

	for t := 0; t < T; t++ {
		if serverOcc[t] != s.ServerOcc[t] {
			return violation("server-occ", "step %d recomputed server occupancy %d != recorded %d",
				t, serverOcc[t], s.ServerOcc[t])
		}
		if serverOcc[t] > s.Params.ServerBuffer {
			return violation("server-capacity", "step %d server occupancy %d exceeds B=%d",
				t, serverOcc[t], s.Params.ServerBuffer)
		}
	}

	occ := 0
	for t := 0; t < T; t++ {
		occ += clientDelta[t]
		if occ != s.ClientOcc[t] {
			return violation("client-occ", "step %d recomputed client occupancy %d != recorded %d",
				t, occ, s.ClientOcc[t])
		}
		if occ > s.Params.ClientBuffer {
			return violation("client-capacity", "step %d client occupancy %d exceeds Bc=%d",
				t, occ, s.Params.ClientBuffer)
		}
	}
	if occ != 0 {
		return violation("conservation", "%d bytes left in client buffer at end of schedule", occ)
	}

	// Every played slice must actually have been delivered in full before
	// its play time; verified above only if its play step is within T.
	// Ensure the horizon covers all play steps.
	for _, o := range s.Outcomes {
		if o.Played() && o.PlayTime >= T {
			return violation("shape", "slice %d play time %d beyond recorded horizon %d", o.First, o.PlayTime, T-1)
		}
	}
	return nil
}

// deliver accounts n bytes of g received at step rt in the client
// occupancy: a byte is held from the end of its receive step until its
// slice is played or dropped by the client, and bytes received at or after
// the slice's client-drop step are discarded on arrival and never counted.
func (s *Schedule) deliver(clientDelta []int, g *sendGroup, rt, n int) error {
	T := len(clientDelta) - 1
	o := g.o
	if rt >= T {
		if o.Played() {
			return violation("shape", "slice %d bytes received at %d beyond recorded horizon",
				g.first+g.sent/g.size, rt)
		}
		return nil
	}
	removed := T
	switch {
	case o.Played():
		if rt > o.PlayTime {
			j := g.sent / g.size
			return violation("client-underflow", "slice %d played at %d before all its bytes were received",
				g.first+j, o.PlayTime)
		}
		removed = o.PlayTime
	case o.DropSite == SiteClient:
		if rt >= o.DropTime {
			return nil // discarded on arrival
		}
		removed = o.DropTime
	}
	clientDelta[rt] += n
	clientDelta[min(removed, T)] -= n
	return nil
}
