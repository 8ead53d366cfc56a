package mux_test

import (
	"fmt"
	"math"

	"repro/internal/admission"
	"repro/internal/drop"
	"repro/internal/mux"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Example multiplexes two complementary bursty streams: each alternates
// busy and idle steps, out of phase, so one shared link carries both
// losslessly while private partitions overflow.
func ExampleShared() {
	mk := func(phase int) *stream.Stream {
		b := stream.NewBuilder()
		for t := 0; t < 60; t++ {
			if t%3 == phase {
				for i := 0; i < 6; i++ {
					b.Add(t, 1, 1) // a burst of 6 unit slices every 3rd step
				}
			}
		}
		return b.MustBuild()
	}
	streams := []*stream.Stream{mk(0), mk(1)}

	// Total rate 4 = exactly the combined average; total buffer 4.
	shared, _ := mux.Shared(streams, 4, 4, drop.Greedy)
	part, _ := mux.Partitioned(streams, 4, 4, drop.Greedy)
	fmt.Printf("shared loss:      %.0f%%\n", 100*shared.WeightedLoss())
	fmt.Printf("partitioned loss: %.0f%% (rate 2, buffer 2 against 6-slice bursts)\n",
		100*part.WeightedLoss())
	fmt.Printf("shared fairness (Jain): %.2f\n", shared.FairnessIndex())
	// Output:
	// shared loss:      0%
	// partitioned loss: 33% (rate 2, buffer 2 against 6-slice bursts)
	// shared fairness (Jain): 1.00
}

// Example_multiplex is admission control plus shared smoothing on one
// link. The Chernoff effective-bandwidth test, trained on one historical
// news trace, decides how many streams the link carries at a 5% per-step
// overflow target; the bound is set beside the overflow measured on fresh
// traces. The admitted streams, and then more than the link's mean
// capacity, share one smoothing buffer or split the same rate and buffer
// (4 max frames a stream either way) into private partitions. The shared
// buffer absorbs what the bufferless bound counts as lost, degrades
// gracefully under overload and spreads the damage evenly; the partitions
// forfeit the multiplexing gain.
func Example_multiplex() {
	const frames = 1200
	gen := func(seed int64) *trace.Clip {
		gc := trace.DefaultGenConfig()
		gc.Frames = frames
		gc.Seed = seed
		clip, _ := trace.Generate(gc)
		return clip
	}
	demand := func(clip *trace.Clip) []int {
		out := make([]int, len(clip.Frames))
		for i, f := range clip.Frames {
			out[i] = f.Size
		}
		return out
	}
	train := demand(gen(1))
	mean := 0.0
	for _, x := range train {
		mean += float64(x)
	}
	mean /= float64(len(train))
	capacity := 6 * mean
	const eps = 0.05
	k, _ := admission.MaxStreams(train, capacity, eps, 64)
	fmt.Printf("link %.0f KB/step (%.1f x one stream's mean): admit %d streams at overflow <= %.0f%%\n",
		capacity, capacity/mean, k, 100*eps)

	overload := int(capacity/mean) + 1
	var streams []*stream.Stream
	var vectors [][]int
	for i := 0; i < overload; i++ {
		clip := gen(int64(1000 + i))
		st, _ := trace.WholeFrameStream(clip, trace.PaperWeights())
		streams = append(streams, st)
		vectors = append(vectors, demand(clip))
	}
	exp, _ := admission.ChernoffExponent(train, k, capacity)
	measured, _ := admission.MeasuredOverflow(vectors[:k], capacity)
	fmt.Printf("bufferless overflow at K=%d: Chernoff bound %.3f, measured %.3f\n", k, math.Exp(exp), measured)

	fmt.Printf("%4s %13s %12s\n", "K", "shared wloss", "partitioned")
	var shared *mux.Result
	for _, kk := range []int{k, overload} {
		shared, _ = mux.Shared(streams[:kk], int(capacity), kk*4*120, drop.Greedy)
		part, _ := mux.Partitioned(streams[:kk], int(capacity), kk*4*120, drop.Greedy)
		fmt.Printf("%4d %12.3f%% %11.3f%%\n", kk, 100*shared.WeightedLoss(), 100*part.WeightedLoss())
	}
	fmt.Print("per-stream weighted loss, shared and overloaded:")
	for _, m := range shared.PerStream {
		fmt.Printf(" %.3f%%", 100*m.WeightedLoss())
	}
	fmt.Println()
	// Output:
	// link 231 KB/step (6.0 x one stream's mean): admit 2 streams at overflow <= 5%
	// bufferless overflow at K=2: Chernoff bound 0.002, measured 0.003
	//    K  shared wloss  partitioned
	//    2        0.000%       0.000%
	//    7        2.146%       5.747%
	// per-stream weighted loss, shared and overloaded: 1.609% 1.689% 1.969% 2.322% 2.085% 2.628% 2.648%
}
