package mux

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/drop"
	"repro/internal/stream"
	"repro/internal/trace"
)

func clipStream(t *testing.T, seed int64, frames int) *stream.Stream {
	t.Helper()
	cfg := trace.DefaultGenConfig()
	cfg.Frames = frames
	cfg.Seed = seed
	clip, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.WholeFrameStream(clip, trace.PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestMergeAlignsOrigins(t *testing.T) {
	a := stream.NewBuilder().Add(0, 1, 1).Add(2, 2, 2).MustBuild()
	b := stream.NewBuilder().Add(1, 3, 3).Add(2, 4, 4).MustBuild()
	combined, origin, err := Merge([]*stream.Stream{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if combined.Len() != 4 {
		t.Fatalf("merged %d slices", combined.Len())
	}
	// Every combined slice's origin stream must contain a slice with the
	// same (arrival, size, weight).
	counts := map[int]int{}
	for id, o := range origin {
		sl := combined.Slice(id)
		counts[o]++
		src := []*stream.Stream{a, b}[o]
		found := false
		for _, cand := range src.Runs() {
			if cand.Arrival == sl.Arrival && cand.Size == sl.Size && cand.Weight == sl.Weight {
				found = true
			}
		}
		if !found {
			t.Errorf("slice %d (origin %d) not found in source stream", id, o)
		}
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Errorf("origin counts = %v", counts)
	}
	// Totals preserved.
	if combined.TotalBytes() != a.TotalBytes()+b.TotalBytes() {
		t.Error("merge lost bytes")
	}
}

func TestMergePreservesTotalsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var streams []*stream.Stream
		var bytes int
		var weight float64
		for k := 0; k < rng.Intn(4)+1; k++ {
			b := stream.NewBuilder()
			for i := 0; i < rng.Intn(10)+1; i++ {
				b.Add(rng.Intn(8), rng.Intn(3)+1, float64(rng.Intn(9)+1))
			}
			st := b.MustBuild()
			streams = append(streams, st)
			bytes += st.TotalBytes()
			weight += st.TotalWeight()
		}
		combined, origin, err := Merge(streams)
		if err != nil {
			return false
		}
		return combined.TotalBytes() == bytes &&
			math.Abs(combined.TotalWeight()-weight) < 1e-9 &&
			len(origin) == combined.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSharedBeatsPartitionedOnIndependentBursts(t *testing.T) {
	// Four independent clips; total rate set at 95% of the combined
	// average, total buffer 8 max frames. Shared smoothing should lose
	// (weighted) no more than the partitioned system — usually far less.
	const k = 4
	var streams []*stream.Stream
	totalBytes := 0
	horizon := 0
	for i := 0; i < k; i++ {
		st := clipStream(t, int64(i+1), 600)
		streams = append(streams, st)
		totalBytes += st.TotalBytes()
		if st.Horizon() > horizon {
			horizon = st.Horizon()
		}
	}
	totalRate := int(0.95 * float64(totalBytes) / float64(horizon+1))
	totalBuffer := 8 * 120 * k

	shared, err := Shared(streams, totalRate, totalBuffer, drop.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	part, err := Partitioned(streams, totalRate, totalBuffer, drop.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if shared.WeightedLoss() > part.WeightedLoss()+1e-9 {
		t.Errorf("shared loss %.4f exceeds partitioned %.4f — no multiplexing gain?",
			shared.WeightedLoss(), part.WeightedLoss())
	}
	// Both accounted for all offered weight.
	if math.Abs(shared.OfferedWeight()-part.OfferedWeight()) > 1e-6 {
		t.Errorf("offered weight differs: %v vs %v", shared.OfferedWeight(), part.OfferedWeight())
	}
	if len(shared.PerStream) != k || len(part.PerStream) != k {
		t.Error("per-stream metrics missing")
	}
}

func TestSingleStreamModesCoincide(t *testing.T) {
	// With K=1 the two modes are the same system.
	st := clipStream(t, 3, 300)
	R := int(0.9 * float64(st.TotalBytes()) / float64(st.Horizon()+1))
	B := 6 * 120
	shared, err := Shared([]*stream.Stream{st}, R, B, drop.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	part, err := Partitioned([]*stream.Stream{st}, R, B, drop.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(shared.Benefit()-part.Benefit()) > 1e-9 {
		t.Errorf("K=1: shared %v != partitioned %v", shared.Benefit(), part.Benefit())
	}
}

func TestEmptyInput(t *testing.T) {
	if _, err := Shared(nil, 1, 1, drop.Greedy); err == nil {
		t.Error("Shared accepted zero streams")
	}
	if _, err := Partitioned(nil, 1, 1, drop.Greedy); err == nil {
		t.Error("Partitioned accepted zero streams")
	}
}

func TestMetricsArithmetic(t *testing.T) {
	m := StreamMetrics{OfferedWeight: 10, PlayedWeight: 7.5}
	if got := m.WeightedLoss(); got != 0.25 {
		t.Errorf("WeightedLoss = %v", got)
	}
	if (StreamMetrics{}).WeightedLoss() != 0 {
		t.Error("zero metrics loss != 0")
	}
	r := Result{PerStream: []StreamMetrics{
		{OfferedWeight: 10, PlayedWeight: 5},
		{OfferedWeight: 10, PlayedWeight: 10},
	}}
	if r.Benefit() != 15 || r.OfferedWeight() != 20 || r.WeightedLoss() != 0.25 {
		t.Errorf("aggregate metrics wrong: %v %v %v", r.Benefit(), r.OfferedWeight(), r.WeightedLoss())
	}
	if (&Result{}).WeightedLoss() != 0 {
		t.Error("empty result loss != 0")
	}
}

func TestFairnessIndex(t *testing.T) {
	// Equal treatment: index 1.
	r := &Result{PerStream: []StreamMetrics{
		{OfferedWeight: 10, PlayedWeight: 8},
		{OfferedWeight: 20, PlayedWeight: 16},
	}}
	if got := r.FairnessIndex(); math.Abs(got-1) > 1e-9 {
		t.Errorf("equal fractions index = %v, want 1", got)
	}
	// One starved stream: index 1/2 for n=2.
	r = &Result{PerStream: []StreamMetrics{
		{OfferedWeight: 10, PlayedWeight: 10},
		{OfferedWeight: 10, PlayedWeight: 0},
	}}
	if got := r.FairnessIndex(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("starved stream index = %v, want 0.5", got)
	}
	// Degenerate cases.
	if (&Result{}).FairnessIndex() != 1 {
		t.Error("empty result index != 1")
	}
	r = &Result{PerStream: []StreamMetrics{{OfferedWeight: 0}}}
	if r.FairnessIndex() != 1 {
		t.Error("zero-offered streams index != 1")
	}
}

func TestSharedIsFairOnHomogeneousStreams(t *testing.T) {
	var streams []*stream.Stream
	totalBytes, horizon := 0, 0
	for i := 0; i < 4; i++ {
		st := clipStream(t, int64(50+i), 500)
		streams = append(streams, st)
		totalBytes += st.TotalBytes()
		if st.Horizon() > horizon {
			horizon = st.Horizon()
		}
	}
	rate := int(0.9 * float64(totalBytes) / float64(horizon+1))
	res, err := Shared(streams, rate, 4*4*120, drop.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if idx := res.FairnessIndex(); idx < 0.99 {
		t.Errorf("shared smoothing unfair on homogeneous streams: Jain index %v", idx)
	}
}
