package drop

import (
	"fmt"
	"math/bits"

	"repro/internal/stream"
)

// window is the membership index shared by the drop policies: a presence
// bitmap over the live slice-ID span, plus the added runs, so a victim's
// size, weight and arrival are one binary search away. The simulator adds
// runs in ID order, so membership is one bit per ID and every query is a
// few word operations, however long the runs are.
//
// Removals trim dead words from both ends and compact the front (words and
// the runs below it) once it dominates, and an empty window rebases at the
// next add, so memory is proportional to the ID span of the live droppable
// set (roughly the server buffer). reset retains the backing arrays.
type window struct {
	base  int      // slice ID of bit 0 of words[0]; a multiple of 64
	head  int      // words[:head] are dead
	words []uint64 // presence bits; the last word is non-zero unless empty
	n     int      // number of live IDs
	end   int      // one past the last ID ever added
	runs  []stream.Run
}

// add registers the IDs of r, which must start at or above the end of every
// run added before; anything else is a driver bug and panics rather than
// corrupting the index.
//
//smoothvet:noalloc
func (w *window) add(r stream.Run) {
	if r.First < w.end {
		panicNonMonotone(r.First, w.end)
	}
	if r.Count <= 0 {
		return
	}
	w.end = r.End()
	if w.n == 0 {
		// Rebase, so long-dead prefixes cost neither memory nor scans.
		w.base, w.head, w.words, w.runs = r.First&^63, 0, w.words[:0], w.runs[:0]
	}
	w.runs = append(w.runs, r)
	for len(w.words) <= (r.End()-1-w.base)>>6 {
		w.words = append(w.words, 0)
	}
	w.n += w.update(r.First, r.End(), true)
}

// remove unregisters the IDs in [first, end); unknown or already-removed
// IDs are skipped.
//
//smoothvet:noalloc
func (w *window) remove(first, end int) {
	if w.n == 0 {
		return
	}
	if w.n -= w.update(first, end, false); w.n == 0 {
		w.head, w.words = 0, w.words[:0]
		return
	}
	for w.words[w.head] == 0 {
		w.head++
	}
	for w.words[len(w.words)-1] == 0 {
		w.words = w.words[:len(w.words)-1]
	}
	if w.head > 64 && w.head > len(w.words)/2 {
		w.words = w.words[:copy(w.words, w.words[w.head:])]
		w.base += 64 * w.head
		w.head = 0
		w.runs = w.runs[:copy(w.runs, w.runs[stream.SearchRuns(w.runs, w.base):])]
	}
}

// update sets (live) or clears the presence bits of [first, end), clamped to
// the stored words, and returns how many bits changed.
//
//smoothvet:noalloc
func (w *window) update(first, end int, live bool) int {
	first, end = w.clamp(first, end)
	changed := 0
	for first < end {
		off := first - w.base
		bit := off & 63
		span := min(64-bit, end-first)
		mask := ^uint64(0) >> (64 - span) << bit
		word := &w.words[off>>6]
		if live {
			changed += bits.OnesCount64(mask &^ *word)
			*word |= mask
		} else {
			changed += bits.OnesCount64(mask & *word)
			*word &^= mask
		}
		first += span
	}
	return changed
}

// word returns the i-th presence word; words outside the stored span are
// all dead.
func (w *window) word(i int) uint64 {
	if i < w.head || i >= len(w.words) {
		return 0
	}
	return w.words[i]
}

// clamp narrows [lo, hi) to the stored span, outside which nothing is live.
func (w *window) clamp(lo, hi int) (int, int) {
	return max(lo, w.base+64*w.head), min(hi, w.base+64*len(w.words))
}

// last returns the highest ID in [lo, hi) whose liveness equals live, or
// lo-1 if there is none.
//
//smoothvet:noalloc
func (w *window) last(lo, hi int, live bool) int {
	none := lo - 1
	if live {
		lo, hi = w.clamp(lo, hi)
	}
	for hi > lo {
		off := hi - 1 - w.base
		bit := off & 63
		word := w.word(off >> 6)
		if !live {
			word = ^word
		}
		if word &= ^uint64(0) >> (63 - bit); word != 0 {
			if id := hi - 1 - bit + 63 - bits.LeadingZeros64(word); id >= lo {
				return id
			}
			return none
		}
		hi -= bit + 1
	}
	return none
}

// firstDead returns the lowest dead ID in [lo, hi), or hi if there is none.
//
//smoothvet:noalloc
func (w *window) firstDead(lo, hi int) int {
	for lo < hi {
		off := lo - w.base
		bit := off & 63
		if word := ^w.word(off>>6) >> bit; word != 0 {
			return min(hi, lo+bits.TrailingZeros64(word))
		}
		lo += 64 - bit
	}
	return hi
}

// oldest and newest return the lowest and highest live IDs; the window must
// not be empty, so its first and last words are non-zero.
func (w *window) oldest() int {
	return w.base + 64*w.head + bits.TrailingZeros64(w.words[w.head])
}

func (w *window) newest() int {
	return w.base + 64*len(w.words) - 1 - bits.LeadingZeros64(w.words[len(w.words)-1])
}

// runOf returns the added run holding id, which must be live.
//
//smoothvet:noalloc
func (w *window) runOf(id int) stream.Run {
	return w.runs[stream.SearchRuns(w.runs, id)]
}

// takeDown removes and returns what single-slice victims "newest live ID
// of r first" would take while over bytes remain: the live IDs of r from
// hi (live) down to the first dead one, at most ceil(over/r.Size) of them.
//
//smoothvet:noalloc
func (w *window) takeDown(r stream.Run, hi, over int) stream.Run {
	lo := max(r.First, hi+1-victimCount(over, r.Size))
	lo = w.last(lo, hi, false) + 1
	w.remove(lo, hi+1)
	r.First, r.Count = lo, hi+1-lo
	return r
}

// takeUp is takeDown from the oldest end: the live IDs of r from lo (live)
// upward.
//
//smoothvet:noalloc
func (w *window) takeUp(r stream.Run, lo, over int) stream.Run {
	hi := min(r.End(), lo+victimCount(over, r.Size))
	hi = w.firstDead(lo+1, hi)
	w.remove(lo, hi)
	r.First, r.Count = lo, hi-lo
	return r
}

// victimCount returns how many slices of the given size cover over bytes:
// ceil(over/size), and at least one.
func victimCount(over, size int) int { return max(1, (over+size-1)/size) }

// len returns the number of live IDs.
func (w *window) len() int { return w.n }

// copyFrom makes w a copy of src in w's own backing arrays.
func (w *window) copyFrom(src *window) {
	w.base, w.head, w.n, w.end = src.base, src.head, src.n, src.end
	w.words = append(w.words[:0], src.words...)
	w.runs = append(w.runs[:0], src.runs...)
}

// reset empties the window, retaining the backing arrays for reuse.
//
//smoothvet:noalloc
func (w *window) reset() {
	w.base, w.head, w.words, w.n, w.end, w.runs = 0, 0, w.words[:0], 0, 0, w.runs[:0]
}

// panicNonMonotone is split out of add so the formatted message's boxing
// stays off the annotated hot path.
func panicNonMonotone(id, end int) {
	panic(fmt.Sprintf("drop: non-monotone slice ID %d added below the end %d of earlier runs", id, end))
}
