package stream

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// fuzzWeights are the weights FuzzBuilderRuns draws from: equal values
// must coalesce and bit-distinct ones (0 and -0) must not.
var fuzzWeights = []float64{1, 2, 0.1, 1.0 / 3, 0, math.Copysign(0, -1)}

// FuzzBuilderRuns checks that building from runs is the same stream as
// adding the slices one at a time: Slice(id) for every ID, Len, TotalBytes,
// TotalWeight and Horizon agree, both with a per-Add build and with a
// per-slice model (expand, stable-sort by arrival, sum in ID order); and
// RunsAt tiles every step's IDs with coalesced runs.
func FuzzBuilderRuns(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0, 0, 3, 1, 0, 2, 1, 2, 5})
	f.Add([]byte{9, 1, 1, 1, 0, 200, 3, 4, 9, 1, 1, 1, 4, 0, 1, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		byRun, byAdd := NewBuilder(), NewBuilder()
		var model []Slice
		for len(ops) >= 4 && len(model) < 4096 {
			arrival, count, size := int(ops[0]%16), int(ops[1]%40), int(ops[2]%5)+1
			w := fuzzWeights[int(ops[3])%len(fuzzWeights)]
			ops = ops[4:]
			byRun.AddRun(arrival, count, size, w)
			for range count {
				byAdd.Add(arrival, size, w)
				model = append(model, Slice{Arrival: arrival, Size: size, Weight: w})
			}
		}
		sort.SliceStable(model, func(i, j int) bool { return model[i].Arrival < model[j].Arrival })
		a, b := byRun.MustBuild(), byAdd.MustBuild()
		bytes, weight, horizon := 0, 0.0, -1
		for id := range model {
			model[id].ID = id
			bytes += model[id].Size
			weight += model[id].Weight
			horizon = max(horizon, model[id].Arrival)
		}
		for _, st := range []*Stream{a, b} {
			if st.Len() != len(model) || st.TotalBytes() != bytes || st.Horizon() != horizon ||
				math.Float64bits(st.TotalWeight()) != math.Float64bits(weight) {
				t.Fatalf("len %d bytes %d weight %v horizon %d, model %d %d %v %d",
					st.Len(), st.TotalBytes(), st.TotalWeight(), st.Horizon(), len(model), bytes, weight, horizon)
			}
			for id, want := range model {
				got := st.Slice(id)
				if got.ID != id || got.Arrival != want.Arrival || got.Size != want.Size ||
					math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
					t.Fatalf("Slice(%d) = %+v, model %+v", id, got, want)
				}
			}
			next := 0
			for step := 0; step <= horizon; step++ {
				runs := st.RunsAt(step)
				for k, r := range runs {
					if r.First != next || r.Count <= 0 || r.Arrival != step {
						t.Fatalf("RunsAt(%d)[%d] = %+v, want a run from ID %d", step, k, r, next)
					}
					if k > 0 && runs[k-1].Size == r.Size && math.Float64bits(runs[k-1].Weight) == math.Float64bits(r.Weight) {
						t.Fatalf("RunsAt(%d) holds uncoalesced runs %+v, %+v", step, runs[k-1], r)
					}
					next = r.End()
				}
			}
			if next != len(model) {
				t.Fatalf("RunsAt covers %d IDs, stream has %d", next, len(model))
			}
		}
		if !slices.Equal(a.Runs(), b.Runs()) {
			t.Fatalf("runs differ: AddRun %+v, Add %+v", a.Runs(), b.Runs())
		}
	})
}
