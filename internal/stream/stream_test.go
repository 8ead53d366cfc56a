package stream

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBuilderAssignsIDsInArrivalOrder(t *testing.T) {
	st := NewBuilder().
		Add(5, 2, 1).
		Add(0, 3, 2).
		Add(5, 1, 3).
		Add(2, 4, 4).
		MustBuild()
	arrivals := make([]int, st.Len())
	for i := range st.Len() {
		if s := st.Slice(i); s.ID != i {
			t.Errorf("slice %d has ID %d", i, s.ID)
		}
		arrivals[i] = st.Slice(i).Arrival
	}
	want := []int{0, 2, 5, 5}
	if !reflect.DeepEqual(arrivals, want) {
		t.Errorf("arrivals = %v, want %v", arrivals, want)
	}
}

func TestBuilderStableWithinStep(t *testing.T) {
	// Two slices at the same arrival keep insertion order.
	st := NewBuilder().
		Add(1, 10, 1). // inserted first
		Add(1, 20, 2).
		MustBuild()
	if st.Slice(0).Size != 10 || st.Slice(1).Size != 20 {
		t.Errorf("insertion order not preserved: sizes %d, %d", st.Slice(0).Size, st.Slice(1).Size)
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name    string
		arrival int
		size    int
		weight  float64
	}{
		{"negative arrival", -1, 1, 1},
		{"zero size", 0, 0, 1},
		{"negative size", 0, -3, 1},
		{"negative weight", 0, 1, -1},
		{"NaN weight", 0, 1, math.NaN()},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewBuilder().Add(tc.arrival, tc.size, tc.weight).Build(); err == nil {
				t.Errorf("Build() succeeded for %s", tc.name)
			}
		})
	}
}

func TestBuilderErrorDoesNotPoisonReuse(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Add(0, -1, 1).Build(); err == nil {
		t.Fatal("expected error")
	}
	st, err := b.Add(0, 1, 1).Build()
	if err != nil {
		t.Fatalf("builder not reusable after error: %v", err)
	}
	if st.Len() != 1 {
		t.Errorf("got %d slices, want 1", st.Len())
	}
}

func TestAggregates(t *testing.T) {
	st := NewBuilder().
		Add(0, 3, 6).
		Add(0, 2, 2).
		Add(4, 5, 10).
		MustBuild()
	if got := st.TotalBytes(); got != 10 {
		t.Errorf("TotalBytes = %d, want 10", got)
	}
	if got := st.TotalWeight(); got != 18 {
		t.Errorf("TotalWeight = %v, want 18", got)
	}
	if got := st.MaxSliceSize(); got != 5 {
		t.Errorf("MaxSliceSize = %d, want 5", got)
	}
	if got := st.Horizon(); got != 4 {
		t.Errorf("Horizon = %d, want 4", got)
	}
	if got := st.AverageRate(); got != 2 {
		t.Errorf("AverageRate = %v, want 2 (10 bytes over 5 steps)", got)
	}
	if got := st.PeakFrameBytes(); got != 5 {
		t.Errorf("PeakFrameBytes = %d, want 5", got)
	}
}

func TestEmptyStream(t *testing.T) {
	st := NewBuilder().MustBuild()
	if st.Len() != 0 || st.TotalBytes() != 0 || st.Horizon() != -1 {
		t.Errorf("empty stream aggregates wrong: len=%d bytes=%d horizon=%d",
			st.Len(), st.TotalBytes(), st.Horizon())
	}
	if st.AverageRate() != 0 {
		t.Errorf("AverageRate of empty stream = %v", st.AverageRate())
	}
	if st.CumulativeArrivals() != nil {
		t.Error("CumulativeArrivals of empty stream should be nil")
	}
	if got := st.ArrivalsAt(0); got != nil {
		t.Errorf("ArrivalsAt(0) = %v, want nil", got)
	}
}

func TestArrivalsAt(t *testing.T) {
	st := NewBuilder().
		Add(2, 1, 1).
		Add(2, 2, 1).
		Add(7, 3, 1).
		MustBuild()
	if got := len(st.ArrivalsAt(2)); got != 2 {
		t.Errorf("ArrivalsAt(2) has %d slices, want 2", got)
	}
	for _, step := range []int{0, 1, 3, 6, 8, -1, 100} {
		if got := st.ArrivalsAt(step); len(got) != 0 {
			t.Errorf("ArrivalsAt(%d) = %v, want empty", step, got)
		}
	}
	if got := len(st.ArrivalsAt(7)); got != 1 {
		t.Errorf("ArrivalsAt(7) has %d slices, want 1", got)
	}
}

func TestCumulativeArrivals(t *testing.T) {
	st := NewBuilder().
		Add(1, 4, 1).
		Add(3, 2, 1).
		Add(3, 1, 1).
		MustBuild()
	got := st.CumulativeArrivals()
	want := []int64{0, 4, 4, 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CumulativeArrivals = %v, want %v", got, want)
	}
}

func TestExplodePreservesAggregates(t *testing.T) {
	st := NewBuilder().
		Add(0, 3, 6).
		Add(2, 5, 5).
		MustBuild()
	ex := st.Explode()
	if ex.Len() != st.TotalBytes() {
		t.Errorf("exploded stream has %d slices, want %d", ex.Len(), st.TotalBytes())
	}
	if !ex.UnitSliced() {
		t.Error("exploded stream is not unit-sliced")
	}
	if ex.TotalBytes() != st.TotalBytes() {
		t.Errorf("TotalBytes changed: %d -> %d", st.TotalBytes(), ex.TotalBytes())
	}
	if math.Abs(ex.TotalWeight()-st.TotalWeight()) > 1e-9 {
		t.Errorf("TotalWeight changed: %v -> %v", st.TotalWeight(), ex.TotalWeight())
	}
	if ex.Horizon() != st.Horizon() {
		t.Errorf("Horizon changed: %d -> %d", st.Horizon(), ex.Horizon())
	}
	// First slice's bytes carry byte value 2 each.
	if got := ex.Slice(0).Weight; got != 2 {
		t.Errorf("first exploded byte weight = %v, want 2", got)
	}
}

func TestExplodeQuick(t *testing.T) {
	// Property: for random streams, Explode preserves total bytes, total
	// weight (within fp tolerance) and per-step arrival byte counts.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		n := rng.Intn(20) + 1
		for i := 0; i < n; i++ {
			b.Add(rng.Intn(10), rng.Intn(6)+1, float64(rng.Intn(100)+1))
		}
		st := b.MustBuild()
		ex := st.Explode()
		if ex.TotalBytes() != st.TotalBytes() {
			return false
		}
		if math.Abs(ex.TotalWeight()-st.TotalWeight()) > 1e-6 {
			return false
		}
		for t := 0; t <= st.Horizon(); t++ {
			a, b := 0, 0
			for _, s := range st.ArrivalsAt(t) {
				a += s.Size
			}
			for _, s := range ex.ArrivalsAt(t) {
				b += s.Size
			}
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRestrict(t *testing.T) {
	st := NewBuilder().
		Add(0, 1, 1).
		Add(1, 2, 2).
		Add(2, 3, 3).
		MustBuild()
	sub := st.Restrict(map[int]bool{0: true, 2: true})
	if sub.Len() != 2 {
		t.Fatalf("restricted stream has %d slices, want 2", sub.Len())
	}
	if sub.Slice(0).Size != 1 || sub.Slice(1).Size != 3 {
		t.Errorf("wrong slices kept: sizes %d, %d", sub.Slice(0).Size, sub.Slice(1).Size)
	}
	if sub.Slice(1).ID != 1 {
		t.Errorf("IDs not re-indexed: got %d", sub.Slice(1).ID)
	}
}

func TestByteValue(t *testing.T) {
	s := Slice{Size: 4, Weight: 10}
	if got := s.ByteValue(); got != 2.5 {
		t.Errorf("ByteValue = %v, want 2.5", got)
	}
}

func TestAddFrame(t *testing.T) {
	st := NewBuilder().AddFrame(3, 2, 5, 1).MustBuild()
	if st.Len() != 3 {
		t.Fatalf("AddFrame built %d slices, want 3", st.Len())
	}
	for id := range st.Len() {
		s := st.Slice(id)
		if s.Arrival != 3 {
			t.Errorf("slice %d arrival = %d, want 3", s.ID, s.Arrival)
		}
		if s.Weight != float64(s.Size) {
			t.Errorf("slice %d weight = %v, want %d", s.ID, s.Weight, s.Size)
		}
	}
}

func TestUnitSliced(t *testing.T) {
	if !NewBuilder().Add(0, 1, 1).MustBuild().UnitSliced() {
		t.Error("size-1 stream not reported unit-sliced")
	}
	if NewBuilder().Add(0, 2, 1).MustBuild().UnitSliced() {
		t.Error("size-2 stream reported unit-sliced")
	}
	if !NewBuilder().MustBuild().UnitSliced() {
		t.Error("empty stream should count as unit-sliced")
	}
}
