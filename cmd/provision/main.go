// Command provision is the operator's calculator: given a trace (or a
// synthetic profile), it prints the full provisioning menu for carrying the
// stream —
//
//   - trace statistics and burstiness;
//   - the peak-reservation and truncation baselines;
//   - lossless smoothing: minimum rate per latency budget (B = R·D);
//   - lossy smoothing: minimum rate for a weighted-loss target;
//   - renegotiated CBR: peak/mean reservation and signalling frequency;
//   - admission control: how many copies of this stream fit a given link.
//
// Usage:
//
//	provision [-trace FILE] [-profile news|sports|movie]
//	          [-loss-target 0.01] [-capacity-factor 8] [-eps 0.001]
//
// Without -trace, a synthetic 2000-frame clip of the given profile is
// generated.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"

	"repro/internal/admission"
	"repro/internal/alternatives"
	"repro/internal/cli"
	"repro/internal/lossless"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() { cli.Main("provision", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("provision", flag.ContinueOnError)
	fs.SetOutput(stdout)
	tracePath := fs.String("trace", "", "trace file (default: synthetic)")
	profile := fs.String("profile", "news", "synthetic profile: news, sports or movie")
	lossTarget := fs.Float64("loss-target", 0.01, "weighted-loss target for lossy smoothing")
	capFactor := fs.Float64("capacity-factor", 8, "admission link capacity in multiples of the mean rate")
	eps := fs.Float64("eps", 1e-3, "admission overflow-probability target")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := trace.ProfileNamed(*profile)
	if err != nil {
		return err
	}
	cfg.Frames = 2000
	clip, err := trace.Load(*tracePath, cfg)
	if err != nil {
		return err
	}
	st, err := trace.WholeFrameStream(clip, trace.PaperWeights())
	if err != nil {
		return err
	}
	avg := clip.AverageRate()

	fmt.Fprintln(stdout, "— stream —")
	fmt.Fprintf(stdout, "frames %d, mean %.1f units/frame, peak frame %d, peak/mean %.2f\n",
		len(clip.Frames), avg, clip.MaxFrameSize(), float64(clip.MaxFrameSize())/avg)
	demand := make([]float64, len(clip.Frames))
	samples := make([]int, len(clip.Frames))
	for i, f := range clip.Frames {
		demand[i] = float64(f.Size)
		samples[i] = f.Size
	}
	if len(demand) >= 8 {
		fmt.Fprintf(stdout, "burstiness: IDC(16) %.1f, IDC(%d) %.1f; lag-1 autocorrelation %.2f\n",
			stats.IndexOfDispersion(demand, 16),
			len(demand)/4, stats.IndexOfDispersion(demand, len(demand)/4),
			stats.Autocorrelation(demand, 1)[1])
	}

	fmt.Fprintln(stdout, "\n— zero-delay baselines —")
	fmt.Fprintf(stdout, "peak reservation: R = %d (%.2f x mean), zero loss, no buffer\n",
		alternatives.PeakRate(st), float64(alternatives.PeakRate(st))/avg)
	tr, err := alternatives.Truncation(st, int(avg))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "truncation at mean rate: %.1f%% weighted loss, no buffer\n", 100*tr.WeightedLoss)

	fmt.Fprintln(stdout, "\n— smoothing (B = R*D) —")
	fmt.Fprintf(stdout, "%8s %16s %18s %14s\n", "delay D", "lossless R/mean", "R/mean @ loss<=", "rcbr peak/mean")
	fmt.Fprintf(stdout, "%8s %16s %18.4g %14s\n", "", "", *lossTarget, "")
	for _, D := range []int{1, 2, 4, 8, 16, 32, 64} {
		r0, err := lossless.MinRateForDelay(st, D)
		if err != nil {
			return err
		}
		r1, err := alternatives.MinRateForLoss(st, D, *lossTarget)
		if err != nil {
			return err
		}
		plan, err := alternatives.Renegotiate(st, D)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%8d %16.2f %18.2f %11.2f (%d renegs)\n",
			D, float64(r0)/avg, float64(r1)/avg, float64(plan.Peak)/avg, plan.Renegotiations)
	}

	fmt.Fprintln(stdout, "\n— admission control —")
	capacity := *capFactor * avg
	k, err := admission.MaxStreams(samples, capacity, *eps, 256)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "link of %.0f units/step (%.1f x mean): admit %d streams at per-step overflow <= %g\n",
		capacity, *capFactor, k, *eps)
	for _, kk := range []int{k, k + 1} {
		if kk < 1 {
			continue
		}
		exp, err := admission.ChernoffExponent(samples, kk, capacity)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  K=%d: Chernoff overflow bound %.2e\n", kk, math.Exp(exp))
	}
	return nil
}
