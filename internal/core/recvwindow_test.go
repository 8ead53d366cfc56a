package core

import (
	"math/rand"
	"testing"
)

// refReceiver is the executable model of the paper's client (map-based,
// grows with the stream, one playout per step with nothing skipped): the
// accounting of the map-based receiver netstream had before its receive
// loop moved onto RecvWindow.
type refReceiver struct {
	delay      int
	size       map[int32]int32
	got        map[int32]int32
	byFrame    map[int][]int32
	watermark  int // highest non-negative frame resolved (late-byte rule)
	reqFrame   int // highest frame requested, negatives included (occupancy records)
	lateBytes  int
	occ        int
	maxOcc     int
	played     int
	incomplete int
}

func newRefReceiver(delay int) *refReceiver {
	return &refReceiver{
		delay:     delay,
		size:      map[int32]int32{},
		got:       map[int32]int32{},
		byFrame:   map[int][]int32{},
		watermark: -1,
		reqFrame:  -1 - delay,
	}
}

func (r *refReceiver) ingest(id int32, frame int, size, n int32) {
	if frame <= r.watermark {
		r.lateBytes += int(n)
		return
	}
	if _, ok := r.size[id]; !ok {
		r.size[id] = size
		r.byFrame[frame] = append(r.byFrame[frame], id)
	}
	r.got[id] += n
	r.occ += int(n)
}

// resolveTo is the client's flush loop: one playout per step from the
// last requested up to frame, recording occupancy after every one —
// empty and negative frames included.
func (r *refReceiver) resolveTo(frame int) {
	for f := r.reqFrame + 1; f <= frame; f++ {
		for _, id := range r.byFrame[f] {
			got := r.got[id]
			r.occ -= int(got)
			if got >= r.size[id] {
				r.played++
			} else {
				r.incomplete++
			}
			delete(r.got, id)
			delete(r.size, id)
		}
		delete(r.byFrame, f)
		if r.occ > r.maxOcc {
			r.maxOcc = r.occ
		}
	}
	if frame > r.reqFrame {
		r.reqFrame = frame
	}
	if frame > r.watermark {
		r.watermark = frame
	}
}

func checkAgainstRef(t *testing.T, w *RecvWindow, r *refReceiver, ctx string) {
	t.Helper()
	if w.Played() != r.played || w.Incomplete() != r.incomplete ||
		w.LateBytes() != r.lateBytes || w.Occupancy() != r.occ || w.MaxOccupancy() != r.maxOcc {
		t.Fatalf("%s: window (played %d, incomplete %d, late %d, occ %d, maxOcc %d) vs model (%d, %d, %d, %d, %d)",
			ctx, w.Played(), w.Incomplete(), w.LateBytes(), w.Occupancy(), w.MaxOccupancy(),
			r.played, r.incomplete, r.lateBytes, r.occ, r.maxOcc)
	}
}

// TestRecvWindowMatchesModel drives random message schedules — chunked
// slices, step gaps, late bytes, missing tails — through RecvWindow and
// the map model and requires identical accounting after every call. The
// first frame may be frame 0, so the start-up steps (frames below 0, see
// TestRecvWindowStartupOccupancy) are resolved with bytes in the buffer.
func TestRecvWindowMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		delay := rng.Intn(12)
		var w RecvWindow
		w.Reset(delay, 2+rng.Intn(6))
		ref := newRefReceiver(delay)

		frames := 5 + rng.Intn(40)
		nextID := int32(0)
		step := -1
		for f := 0; f < frames; f++ {
			// A frame advances the clock by 1..4 steps (gaps exercise
			// multi-frame resolves).
			step += 1 + rng.Intn(4)
			nSlices := rng.Intn(4)
			for sl := 0; sl < nSlices; sl++ {
				id := nextID
				nextID++
				size := int32(1 + rng.Intn(2000))
				// Deliver the slice in 1..3 chunks; sometimes drop the
				// tail (incomplete), sometimes deliver a chunk so late
				// its frame has resolved.
				chunks := 1 + rng.Intn(3)
				sent := int32(0)
				for c := 0; c < chunks; c++ {
					n := size / int32(chunks)
					if c == chunks-1 {
						n = size - sent
					}
					if rng.Intn(10) == 0 {
						continue // dropped chunk -> incomplete
					}
					chunkStep := step + rng.Intn(3)
					if rng.Intn(12) == 0 {
						chunkStep += delay + 2 + rng.Intn(5) // late
					}
					// The resolve-then-ingest order of the client loop.
					w.ResolveTo(chunkStep - 1 - delay)
					ref.resolveTo(chunkStep - 1 - delay)
					frame := step // this slice's arrival frame
					w.Ingest(id, frame, size, n)
					ref.ingest(id, frame, size, n)
					checkAgainstRef(t, &w, ref, "mid-trial")
					sent += n
				}
			}
		}
		w.Finish()
		ref.resolveTo(ref.watermark + frames*10) // resolve everything
		checkAgainstRef(t, &w, ref, "end of trial")
		if w.Occupancy() != 0 {
			t.Fatalf("trial %d: %d bytes left after Finish", trial, w.Occupancy())
		}
	}
}

// TestRecvWindowStartupOccupancy: the end-of-step occupancy records of the
// first D play steps, whose frames lie below 0, must not be lost when the
// request jumps over them (11 and 0 before the fix).
func TestRecvWindowStartupOccupancy(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(w *RecvWindow)
		want int
	}{
		{"jump from frame -2 to 0 holding 16", func(w *RecvWindow) {
			w.Ingest(0, 0, 5, 5)
			w.ResolveTo(-2)
			w.Ingest(1, 5, 11, 11)
			w.ResolveTo(0)
		}, 16},
		{"session shorter than D", func(w *RecvWindow) {
			w.Ingest(0, 0, 5, 5)
			w.Finish()
		}, 5},
	} {
		var w RecvWindow
		w.Reset(6, 1)
		w.ResolveTo(-7)
		tc.run(&w)
		if got := w.MaxOccupancy(); got != tc.want {
			t.Errorf("%s: peak occupancy %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestRecvWindowIngestReportsCompletion: Ingest is true exactly once per
// slice, on the call whose accepted bytes bring it to full size.
func TestRecvWindowIngestReportsCompletion(t *testing.T) {
	var w RecvWindow
	w.Reset(2, 1)
	for i, tc := range []struct {
		id, size, n int32
		frame       int
		want        bool
	}{
		{1, 4, 4, 0, true},  // whole slice in one message
		{2, 6, 2, 0, false}, // first chunk
		{2, 6, 3, 0, false}, // still short
		{2, 6, 1, 0, true},  // last byte
		{2, 6, 1, 0, false}, // a duplicate byte completes nothing twice
		{3, 2, 1, 1, false},
	} {
		if got := w.Ingest(tc.id, tc.frame, tc.size, tc.n); got != tc.want {
			t.Errorf("call %d: completed = %v, want %v", i, got, tc.want)
		}
	}
	w.ResolveTo(1)
	if w.Ingest(3, 1, 2, 1) {
		t.Error("the last byte of a resolved frame completed its slice")
	}
	if w.Played() != 2 || w.Incomplete() != 1 || w.LateBytes() != 1 {
		t.Errorf("played %d incomplete %d late %d, want 2, 1, 1", w.Played(), w.Incomplete(), w.LateBytes())
	}
}

// TestRecvWindowGrow: a frame arriving beyond the configured window must
// grow the ring without losing buffered entries.
func TestRecvWindowGrow(t *testing.T) {
	var w RecvWindow
	w.Reset(0, 4)
	w.Ingest(1, 0, 100, 100) // frame 0, complete
	w.Ingest(2, 1, 100, 40)  // frame 1, partial
	// Frame 70 is far beyond a 4-slot ring: the ring must grow to span
	// (watermark, 70].
	w.Ingest(3, 70, 10, 10)
	if len(w.slots) < 71 {
		t.Fatalf("ring did not grow: %d slots for frame span 71", len(w.slots))
	}
	w.Finish()
	if w.Played() != 2 || w.Incomplete() != 1 {
		t.Fatalf("after grow+finish: played %d incomplete %d, want 2 and 1", w.Played(), w.Incomplete())
	}
}

// TestRecvWindowResolvePastData: resolving far beyond the last ingested
// frame (drop gaps, corrupt send steps) must terminate cheaply and set
// the watermark so later bytes count late.
func TestRecvWindowResolvePastData(t *testing.T) {
	var w RecvWindow
	w.Reset(0, 8)
	w.Ingest(1, 0, 10, 10)
	w.ResolveTo(1 << 40) // must clamp to maxFrame, not walk 2^40 frames
	if w.Played() != 1 {
		t.Fatalf("played %d, want 1", w.Played())
	}
	w.Ingest(2, 1000, 10, 10)
	if w.LateBytes() != 10 || w.Occupancy() != 0 {
		t.Fatalf("late bytes %d, want 10", w.LateBytes())
	}
}

// TestRecvWindowReuse: Reset must fully clear state for session reuse.
func TestRecvWindowReuse(t *testing.T) {
	var w RecvWindow
	for round := 0; round < 3; round++ {
		w.Reset(0, 8)
		if w.Played() != 0 || w.Incomplete() != 0 || w.LateBytes() != 0 ||
			w.Occupancy() != 0 || w.MaxOccupancy() != 0 || w.MaxFrame() != -1 {
			t.Fatalf("round %d: dirty state after Reset", round)
		}
		w.Ingest(int32(round), 3, 50, 50)
		w.Ingest(int32(round+100), 4, 50, 20)
		w.Finish()
		if w.Played() != 1 || w.Incomplete() != 1 {
			t.Fatalf("round %d: played %d incomplete %d", round, w.Played(), w.Incomplete())
		}
	}
}
