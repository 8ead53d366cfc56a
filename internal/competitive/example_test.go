package competitive_test

import (
	"fmt"

	"repro/internal/competitive"
	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/sched"
	"repro/internal/stream"
	"repro/internal/trace"
)

// ExampleMeasureRatio measures the greedy policy's competitive ratio on the
// Theorem 4.7 adversarial instance and compares it with the closed form.
func ExampleMeasureRatio() {
	const (
		B     = 16
		alpha = 8.0
	)
	st, _ := competitive.GreedyLowerBoundInstance(B, alpha)
	ratio, online, opt, _ := competitive.MeasureRatio(st, B, 1, drop.Greedy)
	fmt.Printf("online %.0f, optimal %.0f\n", online, opt)
	fmt.Printf("measured ratio equals prediction: %v\n",
		ratio == competitive.PredictedGreedyRatio(B, alpha))
	// Output:
	// online 153, optimal 265
	// measured ratio equals prediction: true
}

// ExamplePredictedOnlineLB evaluates the Theorem 4.8 constants.
func ExamplePredictedOnlineLB() {
	fmt.Printf("alpha=2:     %.4f\n", competitive.PredictedOnlineLB(2))
	fmt.Printf("alpha=4.015: %.4f\n", competitive.PredictedOnlineLB(4.015))
	// Output:
	// alpha=2:     1.2287
	// alpha=4.015: 1.2820
}

// Example_weighted runs one congested session (rate at 85% of the
// average, lawful B = R·D provisioning, so the client drops nothing) with
// Tail-Drop and with the paper's greedy value-aware policy, and breaks the
// lost data down by MPEG frame type. Tail-Drop guts whatever arrives
// during a burst, I-frames included; greedy puts all the damage on
// B-frames. Real traces keep greedy near the optimum (Figures 2 and 3);
// Example_adversarial shows how far an adversary can push it.
func Example_weighted() {
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 1500
	clip, _ := trace.Generate(cfg)
	st, _ := trace.ByteSliceStream(clip, trace.PaperWeights())
	R := int(0.85 * clip.AverageRate())
	B := 6 * clip.MaxFrameSize()
	fmt.Printf("R = %d KB/step, B = %d KB, D = %d steps\n", R, B, core.DelayFor(B, R))

	var types []trace.FrameType // frame type of each byte slice
	for _, f := range clip.Frames {
		for i := 0; i < f.Size; i++ {
			types = append(types, f.Type)
		}
	}
	for _, f := range []drop.Factory{drop.TailDrop, drop.Greedy} {
		s, _ := core.Simulate(st, core.Config{ServerBuffer: B, Rate: R, Policy: f})
		lost := map[trace.FrameType]int{}
		total := map[trace.FrameType]int{}
		s.Walk(func(o sched.Outcome, r stream.Run) {
			for id := r.First; id < r.End(); id++ {
				total[types[id]] += r.Size
				if o.Dropped() {
					lost[types[id]] += r.Size
				}
			}
		})
		fmt.Printf("%s: byte loss %.2f%%, weighted loss %.2f%%, client drops %d\n",
			f().Name(), 100*s.ByteLoss(), 100*s.WeightedLoss(), s.DroppedAt(sched.SiteClient))
		for _, ft := range []trace.FrameType{trace.I, trace.P, trace.B} {
			fmt.Printf("  %s-frame data lost: %6.2f%% (%d of %d KB)\n",
				ft, 100*float64(lost[ft])/float64(total[ft]), lost[ft], total[ft])
		}
	}
	// Output:
	// R = 32 KB/step, B = 720 KB, D = 23 steps
	// taildrop: byte loss 17.53%, weighted loss 26.52%, client drops 0
	//   I-frame data lost:  40.47% (4155 of 10266 KB)
	//   P-frame data lost:  20.69% (5365 of 25930 KB)
	//   B-frame data lost:   2.57% (546 of 21216 KB)
	// greedy: byte loss 17.53%, weighted loss 3.57%, client drops 0
	//   I-frame data lost:   0.00% (0 of 10266 KB)
	//   P-frame data lost:   1.37% (356 of 25930 KB)
	//   B-frame data lost:  45.77% (9710 of 21216 KB)
}

// Example_adversarial plays the lower-bound games of Section 4 against the
// online policies. Theorem 4.7's instance fills the buffer with weight-1
// slices, keeps it full with a drip of weight-α slices that greedy hoards,
// then forces mass drops with an α-burst: the measured ratio equals the
// closed form exactly and approaches 2. Theorem 4.8's adversary watches
// when a policy sends its last weight-1 slice and then either stops the
// stream (it hoarded for nothing) or bursts (it hoarded too little),
// forcing every deterministic policy above 1.2287 at α = 2 and above
// 1.28197 at α ≈ 4.015. Lossy smoothing has an inherent price of not
// knowing the future, and the paper pins it between 1.2287 and 4.
func Example_adversarial() {
	fmt.Printf("%5s %6s %9s %10s\n", "B", "alpha", "measured", "predicted")
	for _, tc := range []struct {
		B     int
		alpha float64
	}{{8, 2}, {16, 8}, {32, 32}, {64, 128}, {128, 512}} {
		st, _ := competitive.GreedyLowerBoundInstance(tc.B, tc.alpha)
		ratio, _, _, _ := competitive.MeasureRatio(st, tc.B, 1, drop.Greedy)
		fmt.Printf("%5d %6.0f %9.4f %10.4f\n", tc.B, tc.alpha, ratio, competitive.PredictedGreedyRatio(tc.B, tc.alpha))
	}
	const B = 32
	for _, alpha := range []float64{2, 4.015} {
		fmt.Printf("alpha = %v, bound for any deterministic policy %.5f:\n", alpha, competitive.PredictedOnlineLB(alpha))
		for _, f := range []drop.Factory{drop.Greedy, drop.TailDrop, drop.HeadDrop} {
			res, _ := competitive.OnlineLowerBoundGame(f, B, alpha, 3*B)
			scenario := "truncate"
			if res.Burst {
				scenario = "burst"
			}
			fmt.Printf("  %-8s forced to %.4f (cut at t=%d, %s; online %.0f vs opt %.0f)\n",
				f().Name(), res.Ratio, res.StopStep, scenario, res.Online, res.Opt)
		}
	}
	// Output:
	//     B  alpha  measured  predicted
	//     8      2    1.2963     1.2963
	//    16      8    1.7320     1.7320
	//    32     32    1.9109     1.9109
	//    64    128    1.9694     1.9694
	//   128    512    1.9884     1.9884
	// alpha = 2, bound for any deterministic policy 1.22871:
	//   greedy   forced to 1.3299 (cut at t=31, burst; online 97 vs opt 129)
	//   taildrop forced to 1.9143 (cut at t=0, burst; online 35 vs opt 67)
	//   headdrop forced to 1.3299 (cut at t=31, burst; online 97 vs opt 129)
	// alpha = 4.015, bound for any deterministic policy 1.28197:
	//   greedy   forced to 1.5975 (cut at t=31, burst; online 161 vs opt 258)
	//   taildrop forced to 3.6065 (cut at t=0, burst; online 37 vs opt 133)
	//   headdrop forced to 1.5975 (cut at t=31, burst; online 161 vs opt 258)
}
