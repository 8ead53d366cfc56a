package experiment

// Extension experiments beyond the paper's own evaluation: the Section 6
// open problem (proactive dropping), the introduction's alternatives
// (statistical multiplexing, truncation, peak reservation, renegotiated
// CBR), dependency-aware MPEG decodability, and delay jitter with and
// without the jitter-control regulator that justifies the paper's 0-jitter
// model.

import (
	"fmt"

	"repro/internal/alternatives"
	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/linksim"
	"repro/internal/lossless"
	"repro/internal/mux"
	"repro/internal/stream"
	"repro/internal/trace"
)

// TableMuxGain measures the statistical-multiplexing gain of SHARING one
// smoothing buffer and link among K independent streams versus partitioning
// the same total resources privately.
func TableMuxGain(c Config) (*Table, error) {
	c = c.withDefaults()
	perStream := c.Frames / 2
	t := &Table{
		ID:     "muxgain",
		Title:  "Statistical multiplexing gain of shared smoothing (intro, alt. 2)",
		XLabel: "streams K",
		YLabel: "weighted loss %",
		Series: []string{"partitioned", "shared"},
		Notes: []string{
			fmt.Sprintf("independent clips of %d frames; total rate = 0.95 x combined average;", perStream),
			"total buffer = 6 x maxframe x K; greedy policy; whole-frame slices",
		},
	}
	err := t.sweepRowsInt(c, []int{1, 2, 4, 8}, func(k int) (map[string]float64, error) {
		var streams []*stream.Stream
		totalBytes := 0
		horizon := 0
		maxFrame := 0
		for i := 0; i < k; i++ {
			gc := trace.DefaultGenConfig()
			gc.Frames = perStream
			gc.Seed = c.Seed + int64(i)*101
			clip, err := trace.Generate(gc)
			if err != nil {
				return nil, err
			}
			st, err := trace.WholeFrameStream(clip, trace.PaperWeights())
			if err != nil {
				return nil, err
			}
			streams = append(streams, st)
			totalBytes += st.TotalBytes()
			if st.Horizon() > horizon {
				horizon = st.Horizon()
			}
			if clip.MaxFrameSize() > maxFrame {
				maxFrame = clip.MaxFrameSize()
			}
		}
		totalRate := int(0.95 * float64(totalBytes) / float64(horizon+1))
		totalBuffer := 6 * maxFrame * k
		shared, err := mux.Shared(streams, totalRate, totalBuffer, drop.Greedy)
		if err != nil {
			return nil, err
		}
		part, err := mux.Partitioned(streams, totalRate, totalBuffer, drop.Greedy)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"shared":      100 * shared.WeightedLoss(),
			"partitioned": 100 * part.WeightedLoss(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// TableAlternatives compares the bandwidth each approach needs as a
// function of the latency budget: lossy smoothing at a 1% weighted-loss
// target, exact lossless smoothing, and renegotiated CBR; peak reservation
// and truncation appear as notes (they do not trade latency for rate).
func TableAlternatives(c Config) (*Table, error) {
	c = c.withDefaults()
	cl, err := c.clip()
	if err != nil {
		return nil, err
	}
	st, err := trace.WholeFrameStream(cl, trace.PaperWeights())
	if err != nil {
		return nil, err
	}
	avg := cl.AverageRate()
	tr, err := alternatives.Truncation(st, int(avg))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "alternatives",
		Title:  "Bandwidth vs latency budget across VBR-over-CBR approaches (intro)",
		XLabel: "delay D",
		YLabel: "rate / avg rate",
		Series: []string{"smoothing-1pct", "lossless", "rcbr-peak"},
		Notes: []string{
			fmt.Sprintf("frames=%d; rates relative to avg %.1f units/step", c.Frames, avg),
			fmt.Sprintf("peak reservation (D=0, zero loss) needs %.2f x avg", float64(alternatives.PeakRate(st))/avg),
			fmt.Sprintf("truncation at R=avg (D=0, no buffer) loses %.1f%% of the weight", 100*tr.WeightedLoss),
			"rcbr-peak: renegotiated-CBR peak rate with window D (lossless, ~2D delay)",
		},
	}
	delays := []int{1, 2, 4, 8, 16, 32, 64}
	if c.Quick {
		delays = []int{1, 4, 16, 64}
	}
	err = t.sweepRowsInt(c, delays, func(D int) (map[string]float64, error) {
		r1, err := alternatives.MinRateForLoss(st, D, 0.01)
		if err != nil {
			return nil, err
		}
		r0, err := lossless.MinRateForDelay(st, D)
		if err != nil {
			return nil, err
		}
		plan, err := alternatives.Renegotiate(st, D)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"smoothing-1pct": float64(r1) / avg,
			"lossless":       float64(r0) / avg,
			"rcbr-peak":      float64(plan.Peak) / avg,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// TableDecode evaluates dependency-aware quality: the fraction of frames a
// real MPEG decoder could actually use, under Tail-Drop and Greedy, as the
// buffer grows. Greedy's habit of sacrificing B frames (no one references
// a B frame) keeps almost every delivered frame decodable; Tail-Drop's
// indiscriminate drops poison whole GOPs.
func TableDecode(c Config) (*Table, error) {
	c = c.withDefaults()
	cl, err := c.clip()
	if err != nil {
		return nil, err
	}
	st, err := trace.WholeFrameStream(cl, trace.PaperWeights())
	if err != nil {
		return nil, err
	}
	R := rateFor(cl, 0.9)
	t := &Table{
		ID:     "decode",
		Title:  "Decodable frames under MPEG reference dependencies (extension)",
		XLabel: "buffer/maxframe",
		YLabel: "% of frames",
		Series: []string{"taildrop-delivered", "taildrop-decodable", "greedy-delivered", "greedy-decodable"},
		Notes: []string{
			fmt.Sprintf("frames=%d R=%d (0.9 x avg); whole-frame slices; I<-P<-B reference chains", c.Frames, R),
		},
	}
	multiples := []float64{1, 2, 3, 4, 6, 8, 12, 16}
	if c.Quick {
		multiples = []float64{1, 4, 16}
	}
	err = t.sweepRows(c, multiples, func(m float64) (map[string]float64, error) {
		B := bufferUnits(int(m * float64(cl.MaxFrameSize())))
		row := map[string]float64{}
		r := core.AcquireRunner()
		defer core.ReleaseRunner(r)
		for _, p := range []struct {
			name string
			f    drop.Factory
		}{{"taildrop", drop.TailDrop}, {"greedy", drop.Greedy}} {
			s, err := r.Run(st, core.Config{ServerBuffer: B, Rate: R, Policy: p.f})
			if err != nil {
				return nil, err
			}
			// Whole-frame slices: slice ID == frame index.
			stats := trace.Decodability(cl, func(i int) bool { return s.At(i).Played() })
			row[p.name+"-delivered"] = 100 * float64(stats.Delivered) / float64(stats.Total)
			row[p.name+"-decodable"] = 100 * stats.DecodableFraction()
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// TableProactive explores the Section 6 open problem: proactive (early)
// dropping versus the pure overflow-time greedy, on a workload crafted to
// punish no-preemption — long low-value slices that hog the link head just
// before bursts of high-value data — and, for contrast, on the MPEG trace
// where proactivity has nothing to offer.
func TableProactive(c Config) (*Table, error) {
	c = c.withDefaults()
	// Crafted workload: each step one low-value slice of half the rate's
	// worth of bytes; every period a burst of high-value unit slices that
	// exactly fills the buffer.
	const (
		R      = 10
		B      = 60
		period = 6
		steps  = 240
	)
	wb := stream.NewBuilder()
	for t2 := 0; t2 < steps; t2++ {
		wb.Add(t2, 30, 30) // byte value 1, three steps to transmit
		if t2%period == period-1 {
			for i := 0; i < B; i++ {
				wb.Add(t2, 1, 20) // byte value 20
			}
		}
	}
	crafted := wb.MustBuild()

	cl, err := c.clip()
	if err != nil {
		return nil, err
	}
	mpeg, err := trace.ByteSliceStream(cl, trace.PaperWeights())
	if err != nil {
		return nil, err
	}
	mpegR := rateFor(cl, 0.9)
	mpegB := 4 * cl.MaxFrameSize()

	t := &Table{
		ID:     "proactive",
		Title:  "Proactive early-dropping vs overflow-time greedy (Sect. 6 open problem)",
		XLabel: "threshold",
		YLabel: "benefit % of offered",
		Series: []string{"crafted", "mpeg"},
		Notes: []string{
			"threshold 1.0 = pure greedy (drop only on overflow); lower thresholds shed",
			"low-value slices early, before they reach the unpreemptable queue head",
			fmt.Sprintf("crafted: R=%d B=%d, %d-step bursts; mpeg: R=%d B=%d byte slices",
				R, B, period, mpegR, mpegB),
		},
	}
	err = t.sweepRows(c, []float64{0.25, 0.5, 0.75, 0.9, 1.0}, func(th float64) (map[string]float64, error) {
		var factory drop.Factory
		if th >= 1 {
			factory = drop.Greedy
		} else {
			factory = drop.Anticipate(th, 1.5) // shed byte values < 1.5 early
		}
		row := map[string]float64{}
		r := core.AcquireRunner()
		defer core.ReleaseRunner(r)
		sc, err := r.Run(crafted, core.Config{ServerBuffer: B, Rate: R, Policy: factory})
		if err != nil {
			return nil, err
		}
		row["crafted"] = 100 * sc.Benefit() / crafted.TotalWeight()
		sm, err := r.Run(mpeg, core.Config{ServerBuffer: mpegB, Rate: mpegR, Policy: factory})
		if err != nil {
			return nil, err
		}
		row["mpeg"] = 100 * sm.Benefit() / mpeg.TotalWeight()
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// TableJitter quantifies what link-delay jitter does to the naive client
// and how the jitter-control regulator (Section 2.2's justification for
// the 0-jitter model) restores exact constant-delay behaviour at the cost
// of J extra steps of latency.
func TableJitter(c Config) (*Table, error) {
	c = c.withDefaults()
	cl, err := c.clip()
	if err != nil {
		return nil, err
	}
	st, err := trace.WholeFrameStream(cl, trace.PaperWeights())
	if err != nil {
		return nil, err
	}
	R := rateFor(cl, 1.05)
	B := 6 * cl.MaxFrameSize()
	cfg := core.Config{ServerBuffer: B, Rate: R, LinkDelay: 2, Policy: drop.Greedy}
	t := &Table{
		ID:     "jitter",
		Title:  "Delay jitter: naive client vs jitter-control regulator (Sect. 2.2)",
		XLabel: "jitter J",
		YLabel: "% frames played",
		Series: []string{"unregulated", "regulated", "regulator-buffer/R"},
		Notes: []string{
			fmt.Sprintf("frames=%d R=%d B=%d P=2; jitter uniform in [0, J] per step", c.Frames, R, B),
			"regulated runs are byte-identical to a constant P+J link (property-tested)",
		},
	}
	err = t.sweepRowsInt(c, []int{0, 1, 2, 4, 8, 16}, func(J int) (map[string]float64, error) {
		r := core.AcquireRunner()
		defer core.ReleaseRunner(r)
		res, err := linksim.SimulateUnregulated(r, st, cfg, J, c.Seed)
		if err != nil {
			return nil, err
		}
		sch, regOcc, err := linksim.Simulate(r, st, cfg, J, c.Seed)
		if err != nil {
			return nil, err
		}
		played := 0
		for _, o := range sch.Outcomes {
			if o.Played() {
				played += o.Len()
			}
		}
		total := float64(st.Len())
		return map[string]float64{
			"unregulated":        100 * float64(res.Played) / total,
			"regulated":          100 * float64(played) / total,
			"regulator-buffer/R": float64(regOcc) / float64(R),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
