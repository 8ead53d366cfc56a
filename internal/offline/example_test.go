package offline_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/offline"
	"repro/internal/stream"
	"repro/internal/trace"
)

// ExampleOptimalUnit computes the exact maximum-weight schedule for a burst
// of unit slices through a small buffer.
func ExampleOptimalUnit() {
	b := stream.NewBuilder()
	for _, w := range []float64{5, 1, 9, 7, 3} {
		b.Add(0, 1, w)
	}
	st := b.MustBuild()

	// B=2, R=1: one slice leaves in step 0 and two fit the buffer, so the
	// three most valuable survive.
	res, _ := offline.OptimalUnit(st, 2, 1)
	fmt.Printf("benefit %v with %d slices: %v\n", res.Benefit, res.Bytes, res.AcceptedIDs())
	// Output:
	// benefit 21 with 3 slices: [0 2 3]
}

// ExampleOptimalFrames handles atomic slices of different sizes: a large
// cheap frame competes with small valuable ones.
func ExampleOptimalFrames() {
	st := stream.NewBuilder().
		Add(0, 4, 4).  // big, cheap
		Add(0, 2, 20). // small, valuable
		Add(1, 2, 20). // small, valuable
		MustBuild()
	res, _ := offline.OptimalFrames(st, 4, 1)
	fmt.Printf("benefit %v, big frame kept: %v\n", res.Benefit, res.Accepted[0])
	// Output:
	// benefit 40, big frame kept: false
}

// ExampleFeasible checks whether an accepted set fits through the buffer.
func ExampleFeasible() {
	st := stream.NewBuilder().Add(0, 1, 1).Add(0, 1, 1).Add(0, 1, 1).MustBuild()
	all := func(int) bool { return true }
	fmt.Println(offline.Feasible(st, all, 2, 1)) // 1 sent, 2 stored
	fmt.Println(offline.Feasible(st, all, 1, 1)) // 1 sent, 2 > buffer 1
	// Output:
	// true
	// false
}

// Example_quickstart smooths ~80 s of synthetic MPEG (mean frame 38 KB,
// max 120 KB, I/P/B weights 12:8:1; one unit is 1 KB, one step one frame
// time) through a buffer of four max frames, with the link 10% below the
// stream's average rate, and sets the drop policies beside the exact
// offline optimum. Every policy loses the same bytes (Theorem 3.5: with
// B = R·D the number of bytes lost is optimal whatever is dropped), but
// the weighted loss differs enormously: greedy sheds cheap B-frame data,
// keeps I and P frames and lands within a whisker of the optimum — the
// paper's Section 5 story in one table.
func Example_quickstart() {
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 2000
	clip, _ := trace.Generate(cfg)
	st, _ := trace.ByteSliceStream(clip, trace.PaperWeights())
	R := int(0.9 * clip.AverageRate())
	B := 4 * clip.MaxFrameSize()
	fmt.Printf("clip: %d frames, avg %.1f KB/frame, peak %d KB\n",
		len(clip.Frames), clip.AverageRate(), clip.MaxFrameSize())
	fmt.Printf("link %d KB/step, buffer %d KB => delay D = %d steps (B = R*D)\n", R, B, core.DelayFor(B, R))

	fmt.Printf("%-10s %12s %14s\n", "policy", "byte loss", "weighted loss")
	for _, f := range []drop.Factory{drop.TailDrop, drop.HeadDrop, drop.Greedy} {
		s, _ := core.Simulate(st, core.Config{ServerBuffer: B, Rate: R, Policy: f})
		fmt.Printf("%-10s %11.2f%% %13.2f%%\n", f().Name(), 100*s.ByteLoss(), 100*s.WeightedLoss())
	}
	opt, _ := offline.OptimalUnit(st, B, R)
	total := st.TotalWeight()
	fmt.Printf("%-10s %11s %13.2f%%\n", "optimal", "-", 100*(total-opt.Benefit)/total)
	// Output:
	// clip: 2000 frames, avg 38.5 KB/frame, peak 120 KB
	// link 34 KB/step, buffer 480 KB => delay D = 15 steps (B = R*D)
	// policy        byte loss  weighted loss
	// taildrop         15.03%         23.18%
	// headdrop         15.03%         14.38%
	// greedy           15.03%          2.89%
	// optimal              -          2.46%
}
