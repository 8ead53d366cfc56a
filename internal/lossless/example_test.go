package lossless_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lossless"
	"repro/internal/stream"
	"repro/internal/trace"
)

// ExampleMinRateForDelay derives the bandwidth a latency budget buys: the
// setup-protocol calculation of the paper's Section 3.3.
func ExampleMinRateForDelay() {
	// A stream that alternates 10-byte bursts with idle steps.
	b := stream.NewBuilder()
	for t := 0; t < 10; t += 2 {
		b.Add(t, 10, 10)
	}
	st := b.MustBuild()

	// Delay 1 still needs rate 10: the lawful buffer R·D must hold a
	// whole 10-byte slice. At delay 4 the binding constraint is the
	// sustained rate over the whole stream: 50 bytes over 9+4 steps.
	for _, d := range []int{0, 1, 4} {
		r, _ := lossless.MinRateForDelay(st, d)
		fmt.Printf("delay %d needs rate %d (buffer %d)\n", d, r, r*d)
	}
	// Output:
	// delay 0 needs rate 10 (buffer 0)
	// delay 1 needs rate 10 (buffer 10)
	// delay 4 needs rate 4 (buffer 16)
}

// ExampleOptimalStoredPlan computes the minimum-peak-rate plan for a stored
// clip with a client buffer: the taut string through the playback corridor.
func ExampleOptimalStoredPlan() {
	demand := []int{8, 1, 1, 1, 1} // a big first frame, then a trickle
	plan, _ := lossless.OptimalStoredPlan(demand, 100, 2)
	fmt.Printf("peak %.2f with %d segments\n", plan.Peak, len(plan.Segments))
	// Output:
	// peak 2.67 with 2 segments
}

// Example_vod is the simple setup protocol of the paper's Section 3.3 on a
// stored clip: given two of buffer, delay and link rate, the B = R·D law
// and the zero-loss calculators give the third. A latency budget D gives
// the least rate R and the buffer R·D; a rate gives the least buffer and
// the delay it implies. The drops column simulates every row at the
// computed provisioning: zero everywhere, so the tradeoff of Theorem 3.5
// is exactly tight.
func Example_vod() {
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 1500
	clip, _ := trace.Generate(cfg)
	st, _ := trace.WholeFrameStream(clip, trace.PaperWeights())
	avg := clip.AverageRate()
	fmt.Printf("clip: %d frames, avg %.1f KB/frame, peak-to-mean %.2f\n",
		len(clip.Frames), avg, float64(clip.MaxFrameSize())/avg)
	drops := func(B, R, D int) int {
		s, _ := core.Simulate(st, core.Config{ServerBuffer: B, Rate: R, Delay: D})
		return s.DroppedSlices()
	}

	fmt.Printf("%8s %10s %11s %8s %6s\n", "delay D", "min rate R", "buffer R*D", "R / avg", "drops")
	for _, D := range []int{1, 4, 16, 64, 256} {
		R, _ := lossless.MinRateForDelay(st, D)
		fmt.Printf("%8d %7d KB %8d KB %8.2f %6d\n", D, R, R*D, float64(R)/avg, drops(R*D, R, D))
	}
	fmt.Printf("%8s %10s %11s %6s\n", "R / avg", "min buffer", "delay", "drops")
	for _, f := range []float64{1.0, 1.1, 1.3, 1.6, 2.0} {
		R := int(f * avg)
		B, _ := lossless.MinBuffer(st, R)
		D := core.DelayFor(B, R)
		fmt.Printf("%8.1f %7d KB %11d %6d\n", f, B, D, drops(B, R, D))
	}
	// Output:
	// clip: 1500 frames, avg 38.3 KB/frame, peak-to-mean 3.14
	//  delay D min rate R  buffer R*D  R / avg  drops
	//        1     120 KB      120 KB     3.14      0
	//        4      56 KB      224 KB     1.46      0
	//       16      48 KB      768 KB     1.25      0
	//       64      41 KB     2624 KB     1.07      0
	//      256      33 KB     8448 KB     0.86      0
	//  R / avg min buffer       delay  drops
	//      1.0    3752 KB          99      0
	//      1.1    2106 KB          51      0
	//      1.3     637 KB          13      0
	//      1.6     128 KB           3      0
	//      2.0     120 KB           2      0
}
