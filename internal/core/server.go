package core

import (
	"slices"

	"repro/internal/drop"
	"repro/internal/stream"
)

// ServerOptions tunes server behaviour beyond the paper's generic algorithm.
type ServerOptions struct {
	// DropLate enables proactive discarding of slices whose playback
	// deadline can no longer be met (arrival + Deadline < now). The
	// paper's algorithm never does this; with D >= B/R it never needs to.
	DropLate bool
	// Deadline is D, used only when DropLate is set.
	Deadline int
}

// Server is the sending side of the generic algorithm: a FIFO buffer of
// capacity B drained at up to R bytes per step, discarding whole slices
// chosen by a drop.Policy on overflow, never preempting a slice whose
// transmission has begun. It is driven step-by-step, so it can be used both
// by the offline Simulate driver and by online/real-time transports.
//
// The buffer holds runs of slices (stream.Run), not slices: a step costs
// O(runs touched), however many single-byte slices a frame has.
type Server struct {
	buffer int
	rate   int
	policy drop.Policy
	early  drop.EarlyDropper // policy's proactive extension, or nil
	opts   ServerOptions

	// queue[head:] is the FIFO of stored slices, in ID order. Victims may
	// punch holes into a run, which then splits in two. The first slice of
	// queue[head] has had sentHead bytes sent already; once positive, that
	// slice is in transmission and no longer droppable.
	queue    []stream.Run
	head     int
	sentHead int
	occ      int // bytes currently stored

	// Reusable ServerStepResult backing arrays (see Step), which keep
	// Step allocation-free once they have grown to their working size.
	sent    []Batch
	dropped []stream.Run
}

// ServerStepResult reports what the server did in one step.
//
// The Sent and Dropped slices alias buffers owned by the Server and are
// overwritten by the next Step call; callers that retain them across steps
// must copy.
type ServerStepResult struct {
	// Sent lists byte batches submitted to the link this step, in FIFO
	// order; each covers consecutive slices of one run (see Batch).
	Sent []Batch
	// SentBytes is the total size of Sent.
	SentBytes int
	// Dropped lists runs of slices discarded this step (overflow,
	// oversize, or proactive late drop).
	Dropped []stream.Run
	// Occupancy is |Bs(t)|, the buffer occupancy at the end of the step.
	Occupancy int
}

// NewServer returns a server with the given buffer capacity (bytes), link
// rate (bytes/step) and drop policy. The policy must be fresh (not shared
// with another server).
func NewServer(buffer, rate int, policy drop.Policy, opts ServerOptions) *Server {
	sv := &Server{}
	sv.Reset(buffer, rate, policy, opts)
	return sv
}

// Reset reinitializes the server for a new run with the given parameters,
// retaining all grown backing arrays so repeated runs (core.Runner, the
// sweep experiments) allocate nothing. The policy must be fresh or Reset.
//
//smoothvet:noalloc
func (sv *Server) Reset(buffer, rate int, policy drop.Policy, opts ServerOptions) {
	sv.buffer, sv.rate, sv.policy, sv.opts = buffer, rate, policy, opts
	sv.early = drop.EarlyOf(policy)
	sv.queue, sv.head, sv.sentHead, sv.occ = sv.queue[:0], 0, 0, 0
	sv.sent, sv.dropped = sv.sent[:0], sv.dropped[:0]
}

// copyFrom makes sv a copy of src, in sv's own backing arrays, that drops
// with policy, a clone of src's.
func (sv *Server) copyFrom(src *Server, policy drop.Policy) {
	sv.buffer, sv.rate, sv.policy, sv.opts = src.buffer, src.rate, policy, src.opts
	sv.early = drop.EarlyOf(policy)
	sv.queue, sv.head = append(sv.queue[:0], src.stored()...), 0
	sv.sentHead, sv.occ = src.sentHead, src.occ
	sv.sent, sv.dropped = sv.sent[:0], sv.dropped[:0]
}

// Occupancy returns the bytes currently stored.
func (sv *Server) Occupancy() int { return sv.occ }

// Rate returns the current drain rate.
func (sv *Server) Rate() int { return sv.rate }

// SetRate changes the drain rate from the next step on. It supports
// renegotiated-CBR experiments (package adaptive); the paper's model keeps
// the rate constant. Non-positive rates are ignored.
func (sv *Server) SetRate(rate int) {
	if rate > 0 {
		sv.rate = rate
	}
}

// find returns the index of the stored run holding id, or -1.
//
//smoothvet:noalloc
func (sv *Server) find(id int) int {
	k := sv.head + stream.SearchRuns(sv.queue[sv.head:], id)
	if k == len(sv.queue) || sv.queue[k].First > id {
		return -1
	}
	return k
}

// Contains reports whether the slice still has unsent bytes stored in the
// server buffer.
func (sv *Server) Contains(id int) bool { return sv.find(id) >= 0 }

// stored returns the runs of slices with unsent bytes in the buffer, in ID
// order. The result aliases the queue and is valid until the next Step.
//
//smoothvet:aliased
//smoothvet:noalloc
func (sv *Server) stored() []stream.Run { return sv.queue[sv.head:] }

// Empty reports whether the buffer holds no bytes.
func (sv *Server) Empty() bool { return sv.occ == 0 }

// Step executes one time step t: accept the arriving runs, transmit up to
// R bytes in FIFO order, then discard slices per the policy until occupancy
// is within the buffer (Eqs. 2–3 of the paper, with whole-slice drops).
// Arrivals must continue the ID order: each run starts at or above the end
// of every run offered before.
//
//smoothvet:aliased
//smoothvet:noalloc
func (sv *Server) Step(t int, arrivals []stream.Run) ServerStepResult {
	// Reuse the result backing arrays from the previous step (see the
	// ServerStepResult aliasing contract).
	sv.sent, sv.dropped = sv.sent[:0], sv.dropped[:0]

	if sv.opts.DropLate {
		sv.dropLate(t)
	}

	// Arrivals join the buffer; a slice larger than the whole buffer can
	// never be stored and is discarded on the spot.
	for _, r := range arrivals {
		switch {
		case r.Count <= 0:
		case r.Size > sv.buffer:
			sv.dropped = append(sv.dropped, r)
		default:
			sv.queue = append(sv.queue, r)
			sv.occ += r.Bytes()
			sv.policy.Add(r)
		}
	}

	// Proactive policies may shed slices before transmission admits a new
	// slice to the unpreemptable head of the queue (Section 6's open
	// problem; see drop.EarlyDropper).
	if sv.early != nil {
		for {
			victim, more := sv.early.EarlyVictim(sv.occ, sv.buffer)
			if !more {
				break
			}
			sv.discard(victim)
		}
	}

	// Transmit: |S(t)| = min(R, |Bs(t-1)| + |A(t)|), FIFO, no preemption.
	budget := sv.rate
	for budget > 0 && sv.head < len(sv.queue) {
		r := &sv.queue[sv.head]
		b := Batch{SliceID: r.First, Offset: sv.sentHead, Bytes: min(budget, r.Bytes()-sv.sentHead), Size: r.Size}
		// The slices whose first byte leaves now commence transmission:
		// they are no longer droppable.
		if first, end := b.Started(); first < end {
			sv.policy.Remove(first, end)
		}
		sv.sent = append(sv.sent, b)
		budget -= b.Bytes
		sv.occ -= b.Bytes
		_, done := b.Finished()
		r.Count -= done - r.First
		r.First = done
		sv.sentHead = (b.Offset + b.Bytes) % r.Size
		if r.Count == 0 {
			sv.advanceHead()
		}
	}

	// Overflow: discard whole slices until occupancy fits (Eq. 3). The
	// partially-transmitted head slice is exempt; its residue is at most
	// Lmax-1 <= B-1 bytes, so the loop always terminates within capacity
	// as long as every stored slice fits the buffer (guaranteed above).
	for sv.occ > sv.buffer {
		victim, ok := sv.policy.Victim(sv.occ - sv.buffer)
		if !ok {
			break // only the in-transmission residue remains
		}
		sv.discard(victim)
	}

	return ServerStepResult{Sent: sv.sent, SentBytes: sv.rate - budget, Dropped: sv.dropped, Occupancy: sv.occ}
}

// dropLate proactively discards queued, not-yet-started slices whose
// deadline (arrival + D) has already passed. Stream IDs follow arrival
// order, so the late slices are a prefix of the queue.
//
//smoothvet:noalloc
func (sv *Server) dropLate(t int) {
	for i := sv.head; i < len(sv.queue) && sv.queue[i].Arrival+sv.opts.Deadline < t; {
		late := sv.queue[i]
		if i == sv.head && sv.sentHead > 0 {
			// The slice in transmission stays; the rest of its run goes.
			late.First++
			late.Count--
			i++
		}
		if late.Count > 0 {
			sv.policy.Remove(late.First, late.End())
			sv.discard(late)
		}
	}
}

// discard releases the stored, unsent slices of r, which lie in one stored
// run, splitting that run if r is inside it, and reports them dropped.
//
//smoothvet:noalloc
func (sv *Server) discard(r stream.Run) {
	sv.dropped = append(sv.dropped, r)
	sv.occ -= r.Bytes()
	k := sv.find(r.First)
	q := &sv.queue[k]
	tail := *q
	tail.First, tail.Count = r.End(), q.End()-r.End()
	q.Count = r.First - q.First
	switch {
	case q.Count > 0 && tail.Count > 0:
		sv.queue = slices.Insert(sv.queue, k+1, tail)
	case tail.Count > 0:
		*q = tail
	case q.Count == 0:
		sv.queue = slices.Delete(sv.queue, k, k+1)
	}
}

// advanceHead moves past the fully sent head run and compacts the queue
// when more than half of it is dead, keeping memory proportional to live
// runs.
//
//smoothvet:noalloc
func (sv *Server) advanceHead() {
	sv.head++
	if sv.head > 64 && sv.head > len(sv.queue)/2 {
		sv.queue = sv.queue[:copy(sv.queue, sv.queue[sv.head:])]
		sv.head = 0
	}
}
