// Command smoothsim runs one smoothing simulation over a trace and prints
// the schedule's metrics: throughput, benefit, weighted loss, per-site drop
// counts, and the three resource requirements of Definition 2.4.
//
// Usage:
//
//	smoothsim [-trace FILE] [-rate-factor 1.1] [-buffer-multiple 4]
//	          [-policy taildrop|headdrop|greedy|random] [-slices byte|frame]
//	          [-optimal] [-timeline]
//
// Without -trace, a synthetic 2000-frame clip is generated (see
// cmd/tracegen). The smoothing delay follows the B = R·D law.
package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/offline"
	"repro/internal/stream"
	"repro/internal/trace"
)

func main() { cli.Main("smoothsim", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("smoothsim", flag.ContinueOnError)
	fs.SetOutput(stdout)
	tracePath := fs.String("trace", "", "trace file (default: synthetic clip)")
	rateFactor := fs.Float64("rate-factor", 1.1, "link rate relative to the average stream rate")
	bufMult := fs.Float64("buffer-multiple", 4, "buffer size in multiples of the max frame size")
	policyName := fs.String("policy", "greedy", "drop policy: taildrop, headdrop, greedy, random")
	sliceMode := fs.String("slices", "byte", "slice granularity: byte or frame")
	optimal := fs.Bool("optimal", false, "also compute the exact offline optimum")
	timeline := fs.Bool("timeline", false, "render an ASCII occupancy timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := trace.DefaultGenConfig()
	cfg.Frames = 2000
	clip, err := trace.Load(*tracePath, cfg)
	if err != nil {
		return err
	}
	var st *stream.Stream
	switch *sliceMode {
	case "byte":
		st, err = trace.ByteSliceStream(clip, trace.PaperWeights())
	case "frame":
		st, err = trace.WholeFrameStream(clip, trace.PaperWeights())
	default:
		return fmt.Errorf("unknown slice mode %q", *sliceMode)
	}
	if err != nil {
		return err
	}
	R := max(int(*rateFactor*clip.AverageRate()+0.5), 1)
	B := max(int(*bufMult*float64(clip.MaxFrameSize())), 1)
	factory, err := policyByName(*policyName)
	if err != nil {
		return err
	}

	s, err := core.Simulate(st, core.Config{ServerBuffer: B, Rate: R, Policy: factory})
	if err != nil {
		return err
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("internal error — schedule invalid: %w", err)
	}

	fmt.Fprintf(stdout, "trace:         %d frames, avg rate %.1f, max frame %d units; slices=%s\n",
		len(clip.Frames), clip.AverageRate(), clip.MaxFrameSize(), *sliceMode)
	fmt.Fprint(stdout, s.Report())
	if *timeline {
		fmt.Fprint(stdout, s.Timeline(96, 12))
	}
	if *optimal {
		var res *offline.Result
		if st.UnitSliced() {
			res, err = offline.OptimalUnit(st, B, R)
		} else {
			res, err = offline.OptimalFrames(st, B, R)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "optimal:      benefit %.6g (%.2f%% weighted loss); online/optimal = %.4f\n",
			res.Benefit, 100*(st.TotalWeight()-res.Benefit)/st.TotalWeight(),
			s.Benefit()/res.Benefit)
	}
	return nil
}

func policyByName(name string) (drop.Factory, error) {
	switch name {
	case "taildrop":
		return drop.TailDrop, nil
	case "headdrop":
		return drop.HeadDrop, nil
	case "greedy":
		return drop.Greedy, nil
	case "random":
		return drop.Random(1), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}
