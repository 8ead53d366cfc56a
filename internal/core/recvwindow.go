package core

// RecvWindow is the sliding-window generalization of Client's dense
// held/ignored arrays, built for processes that run very many receivers at
// once (the load generator's client engine). Client can afford flat arrays
// sized to the whole stream because a simulation holds one of them;
// a 100k-session client process cannot, so RecvWindow keeps only the
// frames that can still be live — the interval (watermark, watermark+W] —
// in a power-of-two ring of per-frame slots, and resolves frames in order
// exactly like Client.Step's playout: a slice whose bytes all arrived by
// its frame's play time counts as played, a partially delivered slice
// counts as incomplete, and bytes of an already-resolved frame count as
// late and are discarded.
//
// The ring is sized by Reset and grows only when a frame arrives beyond
// the current window (reordering past W frames), so steady-state Ingest
// and ResolveTo allocate nothing. A RecvWindow is not safe for concurrent
// use.
type RecvWindow struct {
	slots      [][]recvEntry // ring of per-frame slice entries, len power of two
	watermark  int           // highest resolved frame
	reqFrame   int           // highest frame ever requested from ResolveTo (may be negative)
	maxFrame   int           // highest frame ever ingested
	occ        int
	maxOcc     int
	played     int
	incomplete int
	lateBytes  int
}

// recvEntry accumulates one slice's delivery within its frame slot.
type recvEntry struct {
	id   int32
	size int32
	got  int32
}

// Reset prepares the window for a new session with smoothing delay
// `delay`: up to delay+slack frames can be in flight at once (slack
// covers frames the sender legitimately holds past their arrival step).
// Grown rings and per-slot entry arrays are retained across Resets, so a
// pooled RecvWindow reaches a steady state with no per-session allocation.
//
// The delay also fixes the occupancy-recording origin: a client playing
// out with delay D issues its first resolve for frame (firstStep-1)-D,
// and peak occupancy is recorded at the end of every play step from step
// 0 — frame -D — onward, so the D start-up steps, whose frames hold
// nothing, count too (see ResolveTo).
func (w *RecvWindow) Reset(delay, slack int) {
	window := delay + slack
	n := 1
	for n < window {
		n <<= 1
	}
	if n > len(w.slots) {
		w.slots = make([][]recvEntry, n)
	}
	for i := range w.slots {
		w.slots[i] = w.slots[i][:0]
	}
	w.watermark = -1
	w.reqFrame = -1 - delay
	w.maxFrame = -1
	w.occ, w.maxOcc = 0, 0
	w.played, w.incomplete, w.lateBytes = 0, 0, 0
}

// Played returns the number of slices fully delivered by their play time.
func (w *RecvWindow) Played() int { return w.played }

// Incomplete returns the number of slices that had bytes but missed their
// play time.
func (w *RecvWindow) Incomplete() int { return w.incomplete }

// LateBytes returns the payload bytes that arrived after their frame was
// resolved.
func (w *RecvWindow) LateBytes() int { return w.lateBytes }

// Occupancy returns the bytes currently buffered; MaxOccupancy the peak,
// recorded at resolve boundaries (the model's end-of-step convention).
func (w *RecvWindow) Occupancy() int    { return w.occ }
func (w *RecvWindow) MaxOccupancy() int { return w.maxOcc }

// MaxFrame returns the highest frame index ingested so far (-1 before the
// first byte).
func (w *RecvWindow) MaxFrame() int { return w.maxFrame }

// Ingest records n delivered bytes of slice id belonging to frame. Bytes
// of an already-resolved frame are counted late and discarded. It reports
// whether this call completed the slice: its bytes were accepted and
// brought the slice to its full size. An accepted byte belongs to an
// unresolved frame, so a slice completes on time or not at all, and every
// completed slice is one ResolveTo will count as played.
//
//smoothvet:noalloc
func (w *RecvWindow) Ingest(id int32, frame int, size, n int32) bool {
	if frame <= w.watermark {
		w.lateBytes += int(n)
		return false
	}
	if frame-w.watermark > len(w.slots) {
		w.grow(frame)
	}
	if frame > w.maxFrame {
		w.maxFrame = frame
	}
	w.occ += int(n)
	slot := &w.slots[frame&(len(w.slots)-1)]
	for i := range *slot {
		if e := &(*slot)[i]; e.id == id {
			short := e.got < e.size
			e.got += n
			return short && e.got >= e.size
		}
	}
	*slot = append(*slot, recvEntry{id: id, size: size, got: n})
	return n >= size
}

// grow re-rings the window so that frame fits; entries keep their slots
// because re-indexing uses each live frame's own index.
func (w *RecvWindow) grow(frame int) {
	n := len(w.slots)
	for frame-w.watermark > n {
		n <<= 1
	}
	fresh := make([][]recvEntry, n)
	for f := w.watermark + 1; f <= w.maxFrame; f++ {
		old := w.slots[f&(len(w.slots)-1)]
		if len(old) > 0 {
			fresh[f&(n-1)] = old
		}
	}
	w.slots = fresh
}

// ResolveTo plays every frame up to and including frame, in order: each
// buffered slice counts as played when fully delivered and incomplete
// otherwise, and its bytes leave the buffer. Frames at or below the
// watermark are already resolved and are skipped.
//
//smoothvet:noalloc
func (w *RecvWindow) ResolveTo(frame int) {
	// The first D play steps of a session resolve frames below 0, which the
	// walk below never visits; the buffer ends each of them as it stands
	// now, before any frame is played out.
	if w.reqFrame < w.watermark && frame > w.reqFrame && w.occ > w.maxOcc {
		w.maxOcc = w.occ
	}
	// Only ingested frames can hold bytes: clamp the walk to maxFrame so a
	// resolve far past the data (drop gaps, corrupt send steps) costs no
	// more than the frames actually seen.
	limit := frame
	if limit > w.maxFrame {
		limit = w.maxFrame
	}
	for f := w.watermark + 1; f <= limit; f++ {
		slot := &w.slots[f&(len(w.slots)-1)]
		for i := range *slot {
			e := (*slot)[i]
			w.occ -= int(e.got)
			if e.got >= e.size {
				w.played++
			} else {
				w.incomplete++
			}
		}
		*slot = (*slot)[:0]
		// Peak occupancy is recorded at playout boundaries: the end of the
		// step that played frame f (the model's Bc(t), Lemma 3.4). Mid-step
		// the buffer may hold up to R more bytes of the frame being played.
		if w.occ > w.maxOcc {
			w.maxOcc = w.occ
		}
	}
	// Every requested play step records, including steps whose frame holds
	// nothing (the clamp above skips walking them, but occupancy is the
	// same at each, so one record suffices). A repeat request for an
	// already-resolved frame records nothing.
	if frame > w.reqFrame {
		w.reqFrame = frame
		if w.occ > w.maxOcc {
			w.maxOcc = w.occ
		}
	}
	if frame > w.watermark {
		w.watermark = frame
	}
}

// Finish resolves every outstanding frame (end of stream: the client
// plays out everything it has).
func (w *RecvWindow) Finish() {
	w.ResolveTo(w.maxFrame)
}
