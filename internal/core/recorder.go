package core

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/sched"
	"repro/internal/stream"
)

// Recorder fills a sched.Schedule from the step results of a Server and a
// Client: every slice's send span, its play time or its drop time and
// site, and the per-step traces. Runner drives one, and so do callers that
// put their own link between server and client (see Runner.Components).
//
// Record logs each event as an ID range and the step it happened at, so a
// step costs O(ranges reported), not O(slices): sends and plays arrive in
// ID order, and drops, which arrive in any order, are inserted in place —
// near the end of their log, since the server holds only recent slices.
// Schedule merges the four logs into the schedule's spans of equal fate.
type Recorder struct {
	out      *sched.Schedule
	resolved int

	// starts, ends, plays and drops log the steps at which slices started
	// and finished transmission, were played, and were dropped (and
	// where); each log is in ID order.
	starts, ends, plays, drops []event
	// dropped has bit id set once slice id's drop is logged.
	dropped []uint64
	// late lists, in ID order, the slices the client has given up on (their
	// play time passed) while their bytes are still in the server buffer,
	// with the step the client gave up. They are resolved when those bytes
	// finally leave the server, so that the recorded occupancies stay exact.
	// It is empty whenever B = R·D holds (Lemma 3.3).
	late []event
}

// event is the slices [first, end), to which something happened at step t;
// site says where a drop happened. A step fits 32 bits (Config.withDefaults
// refuses a run whose step bound does not), which keeps an event at 24
// bytes.
type event struct {
	first, end int
	t          int32
	site       sched.DropSite
}

// reset readies the recorder to fill out, whose traces are empty.
//
//smoothvet:noalloc
func (rec *Recorder) reset(out *sched.Schedule) {
	rec.out, rec.resolved = out, 0
	rec.starts, rec.ends, rec.plays = rec.starts[:0], rec.ends[:0], rec.plays[:0]
	rec.drops, rec.late = rec.drops[:0], rec.late[:0]
	words := (out.Stream.Len() + 63) >> 6
	rec.dropped = slices.Grow(rec.dropped[:0], words)[:words]
	clear(rec.dropped)
}

// copyFrom makes rec a copy of src, in rec's own backing arrays, that fills
// out, whose stream agrees with src's on every slice logged so far and
// whose traces are empty.
func (rec *Recorder) copyFrom(src *Recorder, out *sched.Schedule) {
	rec.out, rec.resolved = out, src.resolved
	rec.starts = append(rec.starts[:0], src.starts...)
	rec.ends = append(rec.ends[:0], src.ends...)
	rec.plays = append(rec.plays[:0], src.plays...)
	rec.drops = append(rec.drops[:0], src.drops...)
	rec.late = append(rec.late[:0], src.late...)
	// Only IDs that have arrived are ever dropped, and out's stream holds
	// them all, so its bitmap is src's, cut or padded to its length.
	words := (out.Stream.Len() + 63) >> 6
	rec.dropped = slices.Grow(rec.dropped[:0], words)[:words]
	clear(rec.dropped[copy(rec.dropped, src.dropped):])
	out.SentPerStep = append(out.SentPerStep, src.out.SentPerStep...)
	out.ServerOcc = append(out.ServerOcc, src.out.ServerOcc...)
	out.ClientOcc = append(out.ClientOcc, src.out.ClientOcc...)
}

// Schedule merges the events recorded so far into the schedule's outcome
// spans and returns the schedule; slices with no event yet are unresolved.
// Each call rebuilds the same schedule's spans in place.
//
//smoothvet:noalloc
func (rec *Recorder) Schedule() *sched.Schedule {
	rec.merge()
	return rec.out
}

// merge rebuilds the schedule's outcome spans from the four logs.
//
//smoothvet:noalloc
func (rec *Recorder) merge() {
	out := rec.out
	spans := out.Outcomes[:0]
	var si, ei, pi, di int // cursors into the four logs
	for id, n := 0, out.Stream.Len(); id < n; {
		var sendStart, sendEnd, playTime, dropTime, b1, b2, b3, b4 int
		si, sendStart, b1 = eventAt(rec.starts, si, id)
		ei, sendEnd, b2 = eventAt(rec.ends, ei, id)
		pi, playTime, b3 = eventAt(rec.plays, pi, id)
		di, dropTime, b4 = eventAt(rec.drops, di, id)
		site := sched.SiteNone
		if dropTime != sched.None {
			site = rec.drops[di].site
		}
		// Extend the last span when the fate is unchanged, which only a
		// boundary in the drop log between equal drops can cause.
		end := min(n, b1, b2, b3, b4)
		if k := len(spans) - 1; k >= 0 && spans[k].SendStart == sendStart && spans[k].SendEnd == sendEnd &&
			spans[k].PlayTime == playTime && spans[k].DropTime == dropTime && spans[k].DropSite == site {
			spans[k].End = end
		} else {
			spans = append(spans, sched.Outcome{First: id, End: end, SendStart: sendStart, SendEnd: sendEnd,
				DropTime: dropTime, DropSite: site, PlayTime: playTime})
		}
		id = end
	}
	out.Outcomes = spans
}

// eventAt looks up slice id in evs, an ID-ordered log whose events from k
// on end above the previous slice looked up. It returns the new cursor,
// the step of the event covering id or None, and the next ID at which that
// answer changes. Successive lookups never pass that ID, so the cursor
// moves at most one event per call.
//
//smoothvet:noalloc
func eventAt(evs []event, k, id int) (next, step, bound int) {
	if k < len(evs) && evs[k].end <= id {
		k++
	}
	switch {
	case k == len(evs):
		return k, sched.None, math.MaxInt
	case evs[k].first > id:
		return k, sched.None, evs[k].first
	}
	return k, int(evs[k].t), evs[k].end
}

// Resolved returns how many slices have their fate recorded: played, or
// dropped at the server or the client.
func (rec *Recorder) Resolved() int { return rec.resolved }

// Record notes step t: first res, the step result of sv, then cres, the
// step result of the client.
//
//smoothvet:noalloc
func (rec *Recorder) Record(t int, sv *Server, res ServerStepResult, cres ClientStepResult) {
	for _, d := range res.Dropped {
		// A slice the client had already declared late may now be
		// physically discarded by the server (proactive late drop); the
		// server is the drop site — that is where the bytes died.
		if len(rec.late) > 0 {
			rec.late = cutEvents(rec.late, d.First, d.End())
		}
		rec.drop(d.First, d.End(), t, sched.SiteServer)
	}
	for _, b := range res.Sent {
		if first, end := b.Started(); first < end {
			rec.starts = appendEvent(rec.starts, event{first, end, int32(t), sched.SiteNone})
		}
		if first, end := b.Finished(); first < end {
			rec.ends = appendEvent(rec.ends, event{first, end, int32(t), sched.SiteNone})
			if len(rec.late) > 0 {
				rec.resolveLate(first, end)
			}
		}
	}

	for _, s := range cres.Played {
		rec.plays = appendEvent(rec.plays, event{s.First, s.End, int32(t), sched.SiteNone})
		rec.resolved += s.End - s.First
	}
	for _, s := range cres.Dropped {
		rec.clientDrop(sv, s.First, s.End, t)
	}

	rec.out.SentPerStep = append(rec.out.SentPerStep, res.SentBytes)
	rec.out.ServerOcc = append(rec.out.ServerOcc, res.Occupancy)
	rec.out.ClientOcc = append(rec.out.ClientOcc, cres.Occupancy)
}

// drop logs the slices among [first, end) not dropped before as dropped at
// step t at the given site; the ones dropped before keep their first drop.
//
//smoothvet:noalloc
func (rec *Recorder) drop(first, end, t int, site sched.DropSite) {
	for a := nextBit(rec.dropped, first, end, false); a < end; {
		b := nextBit(rec.dropped, a, end, true)
		setBits(rec.dropped, a, b)
		rec.drops = insertEvent(rec.drops, event{a, b, int32(t), site})
		rec.resolved += b - a
		a = nextBit(rec.dropped, b, end, false)
	}
}

// clientDrop handles the client giving up on the slices [first, end) at
// step t. The client reports every scheduled slice it could not play:
// slices the server already dropped were resolved upstream (drop skips
// them), and slices still (partly) at the server, which it never dropped,
// are resolved when their bytes leave it.
//
//smoothvet:noalloc
func (rec *Recorder) clientDrop(sv *Server, first, end, t int) {
	held := sv.stored()
	for k := stream.SearchRuns(held, first); first < end; k++ {
		if k == len(held) || held[k].First >= end {
			rec.drop(first, end, t, sched.SiteClient)
			return
		}
		if r := held[k]; r.First > first {
			rec.drop(first, r.First, t, sched.SiteClient)
			first = r.First
		}
		hi := min(held[k].End(), end)
		rec.late = insertEvent(rec.late, event{first, hi, int32(t), sched.SiteClient})
		first = hi
	}
}

// resolveLate resolves the late slices among [first, end), whose bytes
// have now fully left the server: the client discarded (or will discard)
// them on arrival, so they count as lost at the client from the step it
// gave up on them.
//
//smoothvet:noalloc
func (rec *Recorder) resolveLate(first, end int) {
	for _, l := range rec.late {
		if lo, hi := max(l.first, first), min(l.end, end); lo < hi {
			rec.drop(lo, hi, int(l.t), sched.SiteClient)
		}
	}
	rec.late = cutEvents(rec.late, first, end)
}

// appendEvent appends e to evs, extending the last event instead when e
// continues it at the same step and site.
//
//smoothvet:noalloc
func appendEvent(evs []event, e event) []event {
	if n := len(evs); n > 0 && evs[n-1].end == e.first && evs[n-1].t == e.t && evs[n-1].site == e.site {
		evs[n-1].end = e.end
		return evs
	}
	return append(evs, e)
}

// insertEvent adds e, which overlaps none of them, to the ID-ordered evs,
// extending the event before it instead when e continues it at the same
// step and site.
//
//smoothvet:noalloc
func insertEvent(evs []event, e event) []event {
	k := len(evs)
	if k > 0 && evs[k-1].first > e.first {
		lo := 0
		for lo < k {
			if mid := int(uint(lo+k) >> 1); evs[mid].first > e.first {
				k = mid
			} else {
				lo = mid + 1
			}
		}
	}
	if k == len(evs) {
		return appendEvent(evs, e)
	}
	if p := evs[:k]; k > 0 && p[k-1].end == e.first && p[k-1].t == e.t && p[k-1].site == e.site {
		p[k-1].end = e.end
		return evs
	}
	return slices.Insert(evs, k, e)
}

// cutEvents removes the IDs [first, end) from the ID-ordered evs, trimming
// or splitting the events that hold them.
//
//smoothvet:noalloc
func cutEvents(evs []event, first, end int) []event {
	for i := 0; i < len(evs); i++ {
		e := evs[i]
		switch {
		case e.end <= first || e.first >= end:
		case e.first < first && e.end > end:
			evs[i].end = first
			e.first = end
			return slices.Insert(evs, i+1, e)
		case e.first < first:
			evs[i].end = first
		case e.end > end:
			evs[i].first = end
		default:
			evs = slices.Delete(evs, i, i+1)
			i--
		}
	}
	return evs
}

// nextBit returns the first ID in [id, end) whose bit in words is set (or
// clear, if set is false), or end.
//
//smoothvet:noalloc
func nextBit(words []uint64, id, end int, set bool) int {
	for id < end {
		w := words[id>>6]
		if !set {
			w = ^w
		}
		if w >>= uint(id & 63); w != 0 {
			return min(id+bits.TrailingZeros64(w), end)
		}
		id = (id | 63) + 1
	}
	return end
}

// setBits sets the bits of the IDs [first, end) in words.
//
//smoothvet:noalloc
func setBits(words []uint64, first, end int) {
	for first < end {
		n := min(end-first, 64-first&63)
		words[first>>6] |= (1<<uint(n) - 1) << uint(first&63)
		first += n
	}
}
