package drop

import (
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// windowModel is the map-based reference the bitmap window replaces: plain
// hash-map membership with every query recomputed by scanning.
type windowModel struct {
	present map[int]stream.Run // live ID -> the run it was added in
}

func (m *windowModel) add(r stream.Run) {
	for id := r.First; id < r.End(); id++ {
		m.present[id] = r
	}
}

func (m *windowModel) remove(first, end int) {
	for id := first; id < end; id++ {
		delete(m.present, id)
	}
}

// last and first mirror window.last and window.first by scanning.
func (m *windowModel) last(lo, hi int, live bool) int {
	for id := hi - 1; id >= lo; id-- {
		if _, ok := m.present[id]; ok == live {
			return id
		}
	}
	return lo - 1
}

func (m *windowModel) first(lo, hi int, live bool) int {
	for id := lo; id < hi; id++ {
		if _, ok := m.present[id]; ok == live {
			return id
		}
	}
	return hi
}

// checkAgainstModel asserts every observable of the window matches the
// model over [lo, hi), which should reach past both ends of the live span.
func checkAgainstModel(t *testing.T, w *window, m *windowModel, lo, hi int) {
	t.Helper()
	if w.len() != len(m.present) {
		t.Fatalf("len: window %d, model %d", w.len(), len(m.present))
	}
	if w.len() > 0 {
		oldest, newest := -1, -1
		for id := range m.present {
			if oldest < 0 || id < oldest {
				oldest = id
			}
			newest = max(newest, id)
		}
		if w.oldest() != oldest || w.newest() != newest {
			t.Fatalf("oldest, newest: window %d, %d, model %d, %d", w.oldest(), w.newest(), oldest, newest)
		}
	}
	for id := lo; id < hi; id++ {
		r, ok := m.present[id]
		if w.has(id) != ok {
			t.Fatalf("has(%d): window %v, model %v", id, !ok, ok)
		}
		if ok && w.runOf(id) != r {
			t.Fatalf("runOf(%d): window %+v, model %+v", id, w.runOf(id), r)
		}
	}
	// Range queries from a spread of windows, including ones that reach
	// outside the stored words.
	for a := lo; a < hi; a += 7 {
		for b := a; b <= hi; b += 13 {
			for _, live := range []bool{true, false} {
				if got, want := w.last(a, b, live), m.last(a, b, live); got != want {
					t.Fatalf("last(%d, %d, %v): window %d, model %d", a, b, live, got, want)
				}
			}
			if got, want := w.firstDead(a, b), m.first(a, b, false); got != want {
				t.Fatalf("firstDead(%d, %d): window %d, model %d", a, b, got, want)
			}
		}
	}
}

// driveWindow replays an operation stream (runs added in ID order, some
// after gaps; arbitrary range removals) against both implementations and
// cross-checks after every step. ops bytes select the operation; the walk
// is deterministic.
func driveWindow(t *testing.T, ops []byte) {
	t.Helper()
	w := &window{}
	m := &windowModel{present: make(map[int]stream.Run)}
	nextID := 0
	for i, op := range ops {
		switch op % 4 {
		case 0, 1: // add a run, sometimes after a gap
			if op%7 == 0 {
				nextID += int(op%3)*40 + 1 // gap: IDs the policy never sees
			}
			r := stream.Run{First: nextID, Count: int(op)%70 + 1, Arrival: i, Size: int(op%9) + 1, Weight: float64(op%13) + 1}
			w.add(r)
			m.add(r)
			nextID = r.End()
		case 2, 3: // remove a range (possibly already removed: skipped)
			if nextID > 0 {
				first := int(op) * 7919 % nextID
				end := first + int(op)%90
				w.remove(first, end)
				m.remove(first, end)
			}
		}
		checkAgainstModel(t, w, m, max(0, nextID-400), nextID+70)
	}
	// Reset must empty the window and keep it consistent for a fresh run.
	w.reset()
	if w.len() != 0 || w.has(0) {
		t.Fatalf("after reset: len %d", w.len())
	}
	w.add(stream.Run{First: 0, Count: 1, Size: 1})
	if w.oldest() != 0 || w.newest() != 0 {
		t.Fatal("window unusable after reset")
	}
}

// TestWindowAgainstModel drives long random interleavings from fixed seeds.
func TestWindowAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 300)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		driveWindow(t, ops)
	}
}

// FuzzWindow lets the fuzzer search for operation interleavings where the
// bitmap window diverges from the map model. Run with `go test -fuzz
// FuzzWindow ./internal/drop` for an open-ended search; in normal test runs
// the seed corpus below is replayed.
func FuzzWindow(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 3, 4, 2, 2, 0, 1, 14, 7, 21})
	f.Add([]byte{7, 14, 21, 28, 35, 2, 2, 2, 2, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 255, 128, 64})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		driveWindow(t, ops)
	})
}

// TestWindowMonotonePanic locks in the contract violation diagnostic: adding
// a run that starts below the end of an earlier one must panic rather than
// corrupt the index.
func TestWindowMonotonePanic(t *testing.T) {
	w := &window{}
	w.add(stream.Run{First: 5, Count: 1, Size: 1})
	w.add(stream.Run{First: 6, Count: 1, Size: 1})
	w.remove(5, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-monotone add")
		}
	}()
	w.add(stream.Run{First: 4, Count: 1, Size: 1})
}

// TestWindowCompaction forces the dead-prefix compaction path and checks
// the live suffix survives with correct IDs and runs.
func TestWindowCompaction(t *testing.T) {
	w := &window{}
	const n = 300
	for id := 0; id < n; id++ {
		w.add(stream.Run{First: 64 * id, Count: 64, Size: 1, Weight: float64(id)})
	}
	w.remove(0, 64*(n-10)+5)
	if w.len() != 10*64-5 {
		t.Fatalf("len = %d, want %d", w.len(), 10*64-5)
	}
	for id := 64*(n-10) + 5; id < 64*n; id++ {
		if r := w.runOf(id); !w.has(id) || r.Weight != float64(id/64) {
			t.Fatalf("id %d: has %v, run %+v after compaction", id, w.has(id), r)
		}
	}
	if got := w.oldest(); got != 64*(n-10)+5 {
		t.Fatalf("oldest = %d, want %d", got, 64*(n-10)+5)
	}
	// The backing arrays must have shrunk to near the live span.
	if len(w.words) > 64+10 || len(w.runs) > 64+10 {
		t.Fatalf("not compacted: %d words, %d runs", len(w.words), len(w.runs))
	}
}

// TestWindowRebase checks that an add into an empty window rebases instead
// of growing the bitmap across the dead gap.
func TestWindowRebase(t *testing.T) {
	w := &window{}
	w.add(stream.Run{First: 0, Count: 1, Size: 1})
	w.remove(0, 1)
	w.add(stream.Run{First: 1 << 20, Count: 3, Size: 1})
	if len(w.words) != 1 || len(w.runs) != 1 {
		t.Fatalf("%d words, %d runs after rebase, want 1 and 1", len(w.words), len(w.runs))
	}
	if w.oldest() != 1<<20 || w.newest() != 1<<20+2 {
		t.Fatalf("oldest %d, newest %d", w.oldest(), w.newest())
	}
}

// has reports whether id is live.
func (w *window) has(id int) bool {
	off := id - w.base
	return off >= 0 && w.word(off>>6)>>(off&63)&1 != 0
}
