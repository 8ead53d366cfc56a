package core

import (
	"repro/internal/stream"
)

// Client is the receiving side of the generic algorithm (Section 3.1.2):
// it buffers bytes delivered by the link and plays the slices of frame t at
// step t+P+D. A slice is played only if all its bytes have arrived by its
// play time; otherwise it is discarded (it missed its deadline). If the
// client buffer overflows, buffered slices with the latest deadlines are
// discarded until the buffer fits.
//
// With B = R·D and ClientBuffer = B the paper proves neither case ever
// happens (Lemmas 3.3 and 3.4); the client implementation still handles
// them so that mis-provisioned configurations (Section 3.3) can be studied.
//
// The paper's client needs no clock synchronization: it starts a timer of D
// steps at the first arrival. This simulation uses the equivalent absolute
// form PT(s) = AT(s)+P+D, which is what the timer realizes on a 0-jitter
// link.
type Client struct {
	buffer    int
	delay     int
	linkDelay int
	st        *stream.Stream

	// held[id] is the number of bytes of slice id currently buffered, or
	// -1 once its fate is sealed (played or given up on), so stray late
	// bytes are discarded. Slice IDs are dense per stream, so a flat array
	// sized st.Len() replaces the maps the client originally used.
	held []int32
	// [heldLo, heldHi) bounds the IDs that may have held bytes; it is used
	// by the (rare) overflow scan.
	heldLo, heldHi int
	occ            int

	// Reusable ClientStepResult backing arrays (see Step).
	played  []int
	dropped []int
}

// ClientStepResult reports what the client did in one step.
//
// The Played and Dropped slices alias buffers owned by the Client and are
// overwritten by the next Step call; callers that retain them across steps
// must copy.
type ClientStepResult struct {
	// Played lists slice IDs played out this step (all bytes present).
	Played []int
	// Dropped lists slice IDs discarded this step, either because their
	// play time passed without full delivery or because the client
	// buffer overflowed. It may include slices the caller already knows
	// were dropped upstream (the client cannot distinguish "never sent"
	// from "still in transit"); callers should ignore those.
	Dropped []int
	// Occupancy is |Bc(t)| at the end of the step.
	Occupancy int
}

// NewClient returns a client with the given buffer capacity, smoothing
// delay D and link delay P for the given stream. The stream provides the
// frame map (which slices belong to which play step); a wire protocol would
// carry the same information in headers.
func NewClient(buffer, delay, linkDelay int, st *stream.Stream) *Client {
	cl := &Client{}
	cl.Reset(buffer, delay, linkDelay, st)
	return cl
}

// Reset reinitializes the client for a new run over the given stream,
// retaining grown backing arrays so repeated runs (core.Runner) allocate
// nothing once the arrays cover the largest stream seen.
//
//smoothvet:noalloc
func (cl *Client) Reset(buffer, delay, linkDelay int, st *stream.Stream) {
	cl.buffer, cl.delay, cl.linkDelay, cl.st = buffer, delay, linkDelay, st
	n := st.Len()
	if cap(cl.held) < n {
		cl.held = make([]int32, n)
	} else {
		cl.held = cl.held[:n]
		clear(cl.held)
	}
	cl.heldLo, cl.heldHi, cl.occ = n, 0, 0
	cl.played, cl.dropped = cl.played[:0], cl.dropped[:0]
}

// Occupancy returns the bytes currently buffered.
func (cl *Client) Occupancy() int { return cl.occ }

// Step executes one time step t: accept delivered batches, play the frame
// scheduled for t, then resolve any buffer overflow.
//
//smoothvet:aliased
//smoothvet:noalloc
func (cl *Client) Step(t int, delivered []Batch) ClientStepResult {
	cl.played, cl.dropped = cl.played[:0], cl.dropped[:0]

	for _, b := range delivered {
		_, end := b.Started()
		cl.heldLo = min(cl.heldLo, b.SliceID)
		cl.heldHi = max(cl.heldHi, end)
		id, off := b.SliceID, b.Offset
		for left := b.Bytes; left > 0; id, off = id+1, 0 {
			n := min(left, b.Size-off)
			left -= n
			if cl.held[id] >= 0 {
				cl.held[id] += int32(n)
				cl.occ += n
			}
		}
	}

	// Play frame t-P-D: whole slices only; incomplete ones missed their
	// deadline and are discarded.
	for _, r := range cl.st.RunsAt(t - cl.linkDelay - cl.delay) {
		for id := r.First; id < r.End(); id++ {
			switch held := int(cl.held[id]); {
			case held < 0:
				continue
			case held == r.Size:
				cl.played = append(cl.played, id)
			default:
				cl.dropped = append(cl.dropped, id)
			}
			cl.occ -= int(cl.held[id])
			cl.held[id] = -1
		}
	}

	// Overflow: discard buffered slices, latest deadline first, until the
	// buffer fits. Deterministic tie-break by higher slice ID.
	for cl.occ > cl.buffer {
		victim := cl.latestDeadlineHeld()
		if victim < 0 {
			break
		}
		cl.dropped = append(cl.dropped, victim)
		cl.occ -= int(cl.held[victim])
		cl.held[victim] = -1
	}

	return ClientStepResult{Played: cl.played, Dropped: cl.dropped, Occupancy: cl.occ}
}

// latestDeadlineHeld returns the buffered slice with the largest play time
// (ties to the largest ID), or -1 if nothing is buffered. Stream IDs follow
// arrival order, so that is the highest held ID: a downward scan that
// narrows the held range as it passes empty IDs.
//
//smoothvet:noalloc
func (cl *Client) latestDeadlineHeld() int {
	for ; cl.heldHi > cl.heldLo; cl.heldHi-- {
		if cl.held[cl.heldHi-1] > 0 {
			return cl.heldHi - 1
		}
	}
	return -1
}
