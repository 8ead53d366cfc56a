package core

import (
	"slices"

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
//
// The client keeps ID ranges, not per-slice counters, so a step costs
// O(spans touched), however many single-byte slices a frame has.
type Client struct {
	buffer    int
	delay     int
	linkDelay int
	st        *stream.Stream

	// full lists the slices whose bytes have all arrived, as disjoint
	// spans in ID order; a span's size is its slices' size.
	full []idSpan
	// part lists the slices with some but not all bytes buffered, in ID
	// order. Only slices that a batch boundary cut are ever partial.
	part []partSlice
	// IDs below sealed have been played or given up on, and their stray
	// bytes are discarded. Step seals a whole frame at a time and stream
	// IDs follow arrival order, so the sealed IDs form a prefix.
	sealed int
	// victims lists the IDs at or above sealed that overflow discarded, as
	// disjoint spans in ID order with size 0 (they keep no bytes); their
	// late bytes are discarded too.
	victims []idSpan
	occ     int

	// Reusable ClientStepResult backing arrays (see Step).
	played  []Span
	dropped []Span
}

// Span is the slice IDs [First, End).
type Span struct{ First, End int }

// idSpan is the slices [first, end), each with size bytes buffered.
type idSpan struct{ first, end, size int }

// partSlice is slice id of the given size, of which bytes are buffered.
type partSlice struct{ id, bytes, size int }

// ClientStepResult reports what the client did in one step.
//
// The Played and Dropped slices alias buffers owned by the Client and are
// overwritten by the next Step call; callers that retain them across steps
// must copy.
type ClientStepResult struct {
	// Played lists the slices played out this step (all bytes present),
	// as disjoint ID spans.
	Played []Span
	// Dropped lists the slices discarded this step, as disjoint ID spans,
	// either because their play time passed without full delivery or
	// because the client buffer overflowed. It may include slices the
	// caller already knows were dropped upstream (the client cannot
	// distinguish "never sent" from "still in transit"); callers should
	// ignore those.
	Dropped []Span
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
// nothing.
//
//smoothvet:noalloc
func (cl *Client) Reset(buffer, delay, linkDelay int, st *stream.Stream) {
	cl.buffer, cl.delay, cl.linkDelay, cl.st = buffer, delay, linkDelay, st
	cl.full, cl.part, cl.victims = cl.full[:0], cl.part[:0], cl.victims[:0]
	cl.sealed, cl.occ = 0, 0
	cl.played, cl.dropped = cl.played[:0], cl.dropped[:0]
}

// copyFrom makes cl a copy of src, in cl's own backing arrays, that plays
// st, which agrees with src's stream on every frame played so far.
func (cl *Client) copyFrom(src *Client, st *stream.Stream) {
	cl.buffer, cl.delay, cl.linkDelay, cl.st = src.buffer, src.delay, src.linkDelay, st
	cl.full = append(cl.full[:0], src.full...)
	cl.part = append(cl.part[:0], src.part...)
	cl.victims = append(cl.victims[:0], src.victims...)
	cl.sealed, cl.occ = src.sealed, src.occ
	cl.played, cl.dropped = cl.played[:0], cl.dropped[:0]
}

// Occupancy returns the bytes currently buffered.
func (cl *Client) Occupancy() int { return cl.occ }

// Step executes one time step t: accept delivered batches, play the frame
// scheduled for t, then resolve any buffer overflow. Steps must be
// consecutive from 0 after Reset, so that every frame is played.
//
//smoothvet:aliased
//smoothvet:noalloc
func (cl *Client) Step(t int, delivered []Batch) ClientStepResult {
	cl.played, cl.dropped = cl.played[:0], cl.dropped[:0]

	// A batch is a partial first slice, whole slices, then a partial last
	// slice, any of them possibly absent.
	for _, b := range delivered {
		id, left := b.SliceID, b.Bytes
		if b.Offset > 0 || left < b.Size {
			n := min(left, b.Size-b.Offset)
			cl.receivePart(id, n, b.Size)
			id, left = id+1, left-n
		}
		if k := left / b.Size; k > 0 {
			cl.receiveFull(id, id+k, b.Size)
			id, left = id+k, left-k*b.Size
		}
		if left > 0 {
			cl.receivePart(id, left, b.Size)
		}
	}

	// Play frame t-P-D: whole slices only; incomplete ones missed their
	// deadline and are discarded.
	if runs := cl.st.RunsAt(t - cl.linkDelay - cl.delay); len(runs) > 0 {
		cl.play(runs[len(runs)-1].End())
	}

	// Overflow: discard buffered slices, latest deadline first, until the
	// buffer fits. Stream IDs follow arrival order, so that is the highest
	// buffered ID first.
	for cl.occ > cl.buffer {
		var v Span
		np, nf := len(cl.part), len(cl.full)
		switch {
		case np > 0 && (nf == 0 || cl.part[np-1].id >= cl.full[nf-1].end):
			p := cl.part[np-1]
			cl.part = cl.part[:np-1]
			cl.occ -= p.bytes
			v = Span{p.id, p.id + 1}
		case nf > 0:
			f := &cl.full[nf-1]
			k := min(f.end-f.first, (cl.occ-cl.buffer+f.size-1)/f.size)
			f.end -= k
			cl.occ -= k * f.size
			v = Span{f.end, f.end + k}
			if f.first == f.end {
				cl.full = cl.full[:nf-1]
			}
		}
		if v.First == v.End {
			break // nothing buffered: only a negative buffer gets here
		}
		cl.dropped = append(cl.dropped, v)
		cl.victims = insertSpan(cl.victims, idSpan{v.First, v.End, 0})
	}

	return ClientStepResult{Played: cl.played, Dropped: cl.dropped, Occupancy: cl.occ}
}

// receiveFull buffers the whole slices [first, end) of the given size,
// except sealed IDs and overflow victims.
//
//smoothvet:noalloc
func (cl *Client) receiveFull(first, end, size int) {
	first = max(first, cl.sealed)
	for _, v := range cl.victims[searchSpans(cl.victims, first):] {
		if v.first >= end {
			break
		}
		if v.first > first {
			cl.occ += (v.first - first) * size
			cl.full = insertSpan(cl.full, idSpan{first, v.first, size})
		}
		first = v.end
	}
	if first < end {
		cl.occ += (end - first) * size
		cl.full = insertSpan(cl.full, idSpan{first, end, size})
	}
}

// receivePart buffers n bytes of slice id, unless it is sealed or an
// overflow victim, and moves the slice to full once all size bytes are in.
//
//smoothvet:noalloc
func (cl *Client) receivePart(id, n, size int) {
	if n <= 0 || id < cl.sealed {
		return
	}
	if k := searchSpans(cl.victims, id); k < len(cl.victims) && cl.victims[k].first <= id {
		return
	}
	cl.occ += n
	k := searchPart(cl.part, id)
	if k == len(cl.part) || cl.part[k].id != id {
		cl.part = slices.Insert(cl.part, k, partSlice{id, n, size})
		return
	}
	if cl.part[k].bytes += n; cl.part[k].bytes >= size {
		cl.part = slices.Delete(cl.part, k, k+1)
		cl.full = insertSpan(cl.full, idSpan{id, id + 1, size})
	}
}

// play seals every ID below end, where the frame now due ends: complete
// slices play, overflow victims were reported when they were discarded,
// and every other slice missed its deadline.
//
//smoothvet:noalloc
func (cl *Client) play(end int) {
	id, nf, nv := cl.sealed, 0, 0
	for {
		// The next complete or victim span below end; both lists hold
		// only IDs at or above id.
		var s *idSpan
		if nf < len(cl.full) && cl.full[nf].first < end {
			s = &cl.full[nf]
		}
		if nv < len(cl.victims) && cl.victims[nv].first < end && (s == nil || cl.victims[nv].first < s.first) {
			s = &cl.victims[nv]
		}
		if s == nil {
			break
		}
		if s.first > id {
			cl.dropped = append(cl.dropped, Span{id, s.first})
		}
		id = min(s.end, end)
		if s.size > 0 {
			cl.played = append(cl.played, Span{s.first, id})
			cl.occ -= (id - s.first) * s.size
		}
		switch {
		case s.end > end:
			s.first = end
		case s.size > 0:
			nf++
		default:
			nv++
		}
	}
	if id < end {
		cl.dropped = append(cl.dropped, Span{id, end})
	}
	np := 0
	for ; np < len(cl.part) && cl.part[np].id < end; np++ {
		cl.occ -= cl.part[np].bytes
	}
	cl.full = slices.Delete(cl.full, 0, nf)
	cl.victims = slices.Delete(cl.victims, 0, nv)
	cl.part = slices.Delete(cl.part, 0, np)
	cl.sealed = end
}

// searchSpans returns the index of the first of the ID-ordered, disjoint
// spans that ends above id, or len(spans).
//
//smoothvet:noalloc
func searchSpans(spans []idSpan, id int) int {
	lo, hi := 0, len(spans)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); spans[mid].end > id {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// searchPart returns the index of the first partial slice at or above id,
// or len(part).
//
//smoothvet:noalloc
func searchPart(part []partSlice, id int) int {
	lo, hi := 0, len(part)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); part[mid].id >= id {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// insertSpan adds v, which overlaps none of them, to the ID-ordered spans,
// merging it with an adjacent span of the same size.
//
//smoothvet:noalloc
func insertSpan(spans []idSpan, v idSpan) []idSpan {
	k := searchSpans(spans, v.first)
	left := k > 0 && spans[k-1].end == v.first && spans[k-1].size == v.size
	right := k < len(spans) && spans[k].first == v.end && spans[k].size == v.size
	switch {
	case left && right:
		spans[k-1].end = spans[k].end
		return slices.Delete(spans, k, k+1)
	case left:
		spans[k-1].end = v.end
	case right:
		spans[k].first = v.first
	default:
		return slices.Insert(spans, k, v)
	}
	return spans
}
