package drop

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stream"
)

// greedyModel is the per-slice reference the value stacks replace: the live
// IDs of each byte value in ascending order, the victim the largest ID of
// the lowest byte value that has one.
type greedyModel struct {
	present map[int]stream.Run // live ID -> its run
	ids     map[float64][]int  // byte value -> its live IDs, ascending
}

func newGreedyModel() *greedyModel {
	return &greedyModel{present: make(map[int]stream.Run), ids: make(map[float64][]int)}
}

func (m *greedyModel) add(r stream.Run) {
	v := r.ByteValue()
	for id := r.First; id < r.End(); id++ {
		m.present[id] = r
		i, _ := slices.BinarySearch(m.ids[v], id)
		m.ids[v] = slices.Insert(m.ids[v], i, id)
	}
}

// remove drops id if it is live.
func (m *greedyModel) remove(id int) {
	r, ok := m.present[id]
	if !ok {
		return
	}
	delete(m.present, id)
	v := r.ByteValue()
	i, _ := slices.BinarySearch(m.ids[v], id)
	m.ids[v] = slices.Delete(m.ids[v], i, i+1)
}

func (m *greedyModel) reset() {
	clear(m.present)
	clear(m.ids)
}

// victim returns the ID the per-slice policy would drop next, or -1.
func (m *greedyModel) victim() int {
	best, low := -1, 0.0
	for v, ids := range m.ids {
		if len(ids) > 0 && (best < 0 || v < low) {
			best, low = ids[len(ids)-1], v
		}
	}
	return best
}

// driveGreedy replays an operation stream against the value stacks and the
// per-slice model: runs added in ID order (repeating a byte value, after ID
// gaps, byte values that come from different size/weight pairs), range
// removals, victims asked for various excesses, resets, and clones that
// take over from the policy they copy. Every Victim must return
// consecutive IDs of one run that are exactly the model's next single-slice
// victims, no more than the excess needs; Len must agree after every step,
// and the final drain too.
func driveGreedy(t *testing.T, ops []byte) {
	t.Helper()
	p := Greedy().(*greedy)
	defer func() { Recycle(p) }()
	m := newGreedyModel()
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
			m.remove(id)
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
					m.remove(id)
				}
			}
		case 5, 6:
			victim(step, int(op>>3)%7+1)
		case 7:
			if op>>3%8 == 0 {
				p.Reset()
				m.reset()
				nextID = 0 // a reused policy starts a new stream
			} else if op>>3%8 == 1 {
				c, err := Clone(p, nil)
				if err != nil {
					t.Fatal(err)
				}
				Recycle(p)
				p = c.(*greedy)
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

// TestGreedyFrameIsOneRun pins the point of the value stacks: a frame's
// slices — consecutive IDs, one byte value — take one stack entry, however
// many they are, and a byte value takes one stack, whatever (size, weight)
// pair it comes from. Victims leave the lowest stack newest first, across
// the runs that share it.
func TestGreedyFrameIsOneRun(t *testing.T) {
	p := Greedy().(*greedy)
	defer Recycle(p)
	for frame, value := range []float64{3, 1, 2} {
		p.Add(stream.Run{First: 50 * frame, Count: 50, Arrival: frame, Size: 1, Weight: value})
	}
	// Byte value 1 again, from size 2 and weight 2.
	p.Add(stream.Run{First: 150, Count: 10, Arrival: 3, Size: 2, Weight: 2})
	if _, ok := p.peek(); !ok {
		t.Fatal("peek found nothing")
	}
	var values []float64
	for _, s := range p.stacks {
		values = append(values, s.value)
	}
	if depths := p.depths(); !slices.Equal(values, []float64{3, 2, 1}) || !slices.Equal(depths, []int{1, 1, 2}) {
		t.Errorf("stacks of values %v hold %v runs, want values [3 2 1] holding [1 1 2]", values, depths)
	}
	got := drain(p)
	want := slices.Concat(descending(150, 160), descending(50, 100), descending(100, 150), descending(0, 50))
	if !slices.Equal(got, want) {
		t.Errorf("victim order %v: want the size-2 run newest first, then frame 1, then frame 2, then frame 0", got)
	}
}

// descending returns the IDs end-1 down to first.
func descending(first, end int) []int {
	var ids []int
	for id := end - 1; id >= first; id-- {
		ids = append(ids, id)
	}
	return ids
}

// FuzzGreedyRuns lets the fuzzer search for operation interleavings where
// the value stacks diverge from the per-slice model. Run with `go test -fuzz
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
