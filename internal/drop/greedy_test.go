package drop

import (
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// greedyModel is the per-slice reference the run heap replaces: one slice
// per live ID, the victim found by a scan (lowest byte value, ties to the
// largest ID).
type greedyModel struct {
	present map[int]stream.Run // live ID -> its run
}

func (m *greedyModel) add(r stream.Run) {
	for id := r.First; id < r.End(); id++ {
		m.present[id] = r
	}
}

// victim returns the ID the per-slice policy would drop next, or -1.
func (m *greedyModel) victim() int {
	best := -1
	for id, r := range m.present {
		if best < 0 {
			best = id
			continue
		}
		b := m.present[best]
		if r.ByteValue() < b.ByteValue() || (r.ByteValue() == b.ByteValue() && id > best) {
			best = id
		}
	}
	return best
}

// driveGreedy replays an operation stream against the run heap and the
// per-slice model: runs added in ID order (repeating a byte value, after ID
// gaps, byte values that come from different size/weight pairs), range
// removals, victims asked for various excesses, and resets. Every Victim
// must return consecutive IDs of one run that are exactly the model's next
// single-slice victims, no more than the excess needs; Len must agree after
// every step, and the final drain too.
func driveGreedy(t *testing.T, ops []byte) {
	t.Helper()
	p := Greedy().(*greedy)
	defer Recycle(p)
	m := &greedyModel{present: make(map[int]stream.Run)}
	nextID := 0
	value := 1.0
	victim := func(step, over int) bool {
		t.Helper()
		v, ok := p.Victim(over)
		if !ok {
			if id := m.victim(); id >= 0 {
				t.Fatalf("step %d: no victim, model has %d", step, id)
			}
			return false
		}
		if v.Count < 1 || v.Count > victimCount(over, v.Size) {
			t.Fatalf("step %d: Victim(%d) took %d slices of size %d", step, over, v.Count, v.Size)
		}
		for id := v.End() - 1; id >= v.First; id-- {
			want := m.victim()
			if r := m.present[want]; want != id || r.Size != v.Size || r.Weight != v.Weight || r.Arrival != v.Arrival {
				t.Fatalf("step %d: Victim(%d) = %+v, model's next victim is %d of %+v", step, over, v, want, r)
			}
			delete(m.present, id)
		}
		return true
	}
	for step, op := range ops {
		switch op % 8 {
		case 0, 1, 2: // a run at the current byte value
			size := 1 + int(op>>6)&1
			r := stream.Run{First: nextID, Count: 1 + int(op>>3)%9, Arrival: step, Size: size, Weight: value * float64(size)}
			p.Add(r)
			m.add(r)
			nextID = r.End()
		case 3: // new byte value, sometimes after an ID gap
			value = 0.5 * float64(op>>3%5+1)
			if op>>3%3 == 0 {
				nextID += int(op>>5) + 1
			}
		case 4: // remove a range (possibly already gone: skipped)
			if nextID > 0 {
				first := int(op>>3) * 31 % nextID
				end := first + int(op>>5) + 1
				p.Remove(first, end)
				for id := first; id < end; id++ {
					delete(m.present, id)
				}
			}
		case 5, 6:
			victim(step, int(op>>3)%7+1)
		case 7:
			if op>>3%8 == 0 {
				p.Reset()
				clear(m.present)
				nextID = 0 // a reused policy starts a new stream
			} else if _, ok := p.peek(); ok != (len(m.present) > 0) {
				t.Fatalf("step %d: peek %v with %d live", step, ok, len(m.present))
			}
		}
		if p.Len() != len(m.present) {
			t.Fatalf("step %d: Len %d, model %d", step, p.Len(), len(m.present))
		}
	}
	for step := len(ops); victim(step, 1+step%5); step++ {
	}
}

// TestGreedyRunsAgainstModel drives long random interleavings from fixed
// seeds, with the operation mix skewed so that runs pile up on some seeds
// and victims dominate on others.
func TestGreedyRunsAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 600)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
			if seed%3 == 0 && rng.Intn(2) == 0 {
				ops[i] &^= 7 // case 0: add a run
			}
		}
		driveGreedy(t, ops)
	}
}

// TestGreedyFrameIsOneRun pins the point of the run heap: a frame's slices
// — consecutive IDs, one byte value — take one heap entry, however many
// they are, and still leave newest first.
func TestGreedyFrameIsOneRun(t *testing.T) {
	p := Greedy().(*greedy)
	defer Recycle(p)
	for frame, value := range []float64{3, 1, 2} {
		p.Add(stream.Run{First: 50 * frame, Count: 50, Arrival: frame, Size: 1, Weight: value})
	}
	if _, ok := p.peek(); !ok {
		t.Fatal("peek found nothing")
	}
	if len(p.h) != 3 {
		t.Errorf("heap holds %d entries for 3 frames, want 3", len(p.h))
	}
	got := drain(p)
	if len(got) != 150 || got[0] != 99 || got[49] != 50 || got[50] != 149 || got[100] != 49 || got[149] != 0 {
		t.Errorf("victim order %v: want frame 1 newest first, then frame 2, then frame 0", got)
	}
}

// FuzzGreedyRuns lets the fuzzer search for operation interleavings where
// the run heap diverges from the per-slice model. Run with `go test -fuzz
// FuzzGreedyRuns ./internal/drop` for an open-ended search; in normal test
// runs the seed corpus below is replayed.
func FuzzGreedyRuns(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 5, 5, 6, 5, 5, 5})
	f.Add([]byte{0, 0, 7 + 8, 5, 7 + 8, 0, 5, 5, 5})
	f.Add([]byte{3, 0, 0, 11, 0, 0, 19, 4, 12, 6, 5, 5, 7, 5, 0, 0, 5})
	f.Add([]byte{0, 64, 128, 192, 3 + 24, 0, 4, 6, 5, 6, 5, 255, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		driveGreedy(t, ops)
	})
}
