package drop

import (
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// greedyModel is the per-item reference the run heap replaces: one
// (id, byte value) item per Add, the minimum found by a scan (lowest byte
// value, ties to the largest ID), stale items discarded when they surface.
type greedyModel struct {
	items   []greedyModelItem
	present map[int]stream.Slice
}

type greedyModelItem struct {
	id        int
	byteValue float64
}

func (m *greedyModel) add(s stream.Slice) {
	m.present[s.ID] = s
	m.items = append(m.items, greedyModelItem{s.ID, s.ByteValue()})
}

// peek discards stale minima and returns the index of the live minimum
// item, or -1.
func (m *greedyModel) peek() int {
	for len(m.items) > 0 {
		best := 0
		for i, it := range m.items {
			b := m.items[best]
			if it.byteValue < b.byteValue || (it.byteValue == b.byteValue && it.id > b.id) {
				best = i
			}
		}
		if _, ok := m.present[m.items[best].id]; ok {
			return best
		}
		m.pop(best)
	}
	return -1
}

func (m *greedyModel) pop(i int) {
	m.items[i] = m.items[len(m.items)-1]
	m.items = m.items[:len(m.items)-1]
}

func (m *greedyModel) victim() (stream.Slice, bool) {
	i := m.peek()
	if i < 0 {
		return stream.Slice{}, false
	}
	s := m.present[m.items[i].id]
	delete(m.present, s.ID)
	m.pop(i)
	return s, true
}

func (m *greedyModel) reset() {
	m.items = m.items[:0]
	clear(m.present)
}

// driveGreedy replays an operation stream against the run heap and the
// per-item model: adds in non-decreasing ID order (consecutive IDs that
// repeat a byte value, ID gaps, the last ID again, byte values that come
// from different size/weight pairs), removals, victims, peeks and resets.
// The victim and Len must agree after every step, and the final drain too.
func driveGreedy(t *testing.T, ops []byte) {
	t.Helper()
	p := NewGreedy().(*greedy)
	defer Recycle(p)
	m := &greedyModel{present: make(map[int]stream.Slice)}
	nextID := 0
	value := 1.0
	var added []int
	same := func(step int, what string, ps stream.Slice, pok bool, ms stream.Slice, mok bool) {
		t.Helper()
		if pok != mok || ps != ms {
			t.Fatalf("step %d %s: greedy (%+v,%v), model (%+v,%v)", step, what, ps, pok, ms, mok)
		}
	}
	add := func(step, id int, op byte) {
		size := 1 + int(op>>6)&1
		s := stream.Slice{ID: id, Arrival: step, Size: size, Weight: value * float64(size)}
		p.Add(s)
		m.add(s)
		added = append(added, id)
	}
	for step, op := range ops {
		switch op % 8 {
		case 0, 1, 2: // extend the run: next ID, current byte value
			add(step, nextID, op)
			nextID++
		case 3: // new byte value, sometimes after an ID gap
			value = 0.5 * float64(op>>3%5+1)
			if op>>3%3 == 0 {
				nextID += int(op>>5) + 1
			}
			add(step, nextID, op)
			nextID++
		case 4: // remove a known id (possibly already gone: no-op)
			if len(added) > 0 {
				id := added[int(op>>3)%len(added)]
				p.Remove(id)
				delete(m.present, id)
			}
		case 5:
			ps, pok := p.Victim()
			ms, mok := m.victim()
			same(step, "Victim", ps, pok, ms, mok)
		case 6:
			ps, pok := p.peek()
			var ms stream.Slice
			i := m.peek()
			if i >= 0 {
				ms = m.present[m.items[i].id]
			}
			same(step, "peek", ps, pok, ms, i >= 0)
		case 7: // the last ID again (Add allows equal IDs), rarely a Reset
			switch {
			case op>>3%8 == 0:
				p.Reset()
				m.reset()
				added = added[:0]
			case nextID > 0:
				if op>>3%2 == 0 {
					value = 0.5 * float64(op>>4%5+1)
				}
				add(step, nextID-1, op)
			}
		}
		if p.Len() != len(m.present) {
			t.Fatalf("step %d: Len %d, model %d", step, p.Len(), len(m.present))
		}
	}
	for step := len(ops); ; step++ {
		ps, pok := p.Victim()
		ms, mok := m.victim()
		same(step, "drain", ps, pok, ms, mok)
		if !pok {
			break
		}
	}
}

// TestGreedyRunsAgainstModel drives long random interleavings from fixed
// seeds, with the operation mix skewed so that runs grow long on some seeds
// and victims dominate on others.
func TestGreedyRunsAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 600)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
			if seed%3 == 0 && rng.Intn(2) == 0 {
				ops[i] &^= 7 // case 0: extend the run
			}
		}
		driveGreedy(t, ops)
	}
}

// TestGreedyFrameIsOneRun pins the point of the run heap: a frame's slices
// — consecutive IDs, one byte value — take one heap entry, however many
// they are, and still leave newest first.
func TestGreedyFrameIsOneRun(t *testing.T) {
	p := NewGreedy().(*greedy)
	defer Recycle(p)
	id := 0
	for frame, value := range []float64{3, 1, 2} {
		for k := 0; k < 50; k++ {
			p.Add(slice(id, frame, 1, value))
			id++
		}
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
// the run heap diverges from the per-item model. Run with `go test -fuzz
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
