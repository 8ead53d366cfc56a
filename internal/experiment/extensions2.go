package experiment

// Further extension experiments: viewer-perceived glitches, online
// renegotiated CBR, and effective-bandwidth admission control.

import (
	"fmt"
	"math"

	"repro/internal/adaptive"
	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/trace"
)

// TableGlitch measures playback glitches (maximal runs of undecodable
// frames): the viewer-facing cost of value-blind dropping, complementing
// TableDecode's per-frame counts.
func TableGlitch(c Config) (*Table, error) {
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
		ID:     "glitch",
		Title:  "Playback glitches per 1000 frames (extension)",
		XLabel: "buffer/maxframe",
		YLabel: "glitches/kframe (and longest run)",
		Series: []string{"taildrop-glitches", "greedy-glitches", "taildrop-longest", "greedy-longest"},
		Notes: []string{
			fmt.Sprintf("frames=%d R=%d (0.9 x avg); glitch = maximal run of undecodable frames", c.Frames, R),
		},
	}
	multiples := []float64{1, 2, 4, 8, 16}
	if c.Quick {
		multiples = []float64{1, 4, 16}
	}
	err = t.sweepRows(c, multiples, func(m float64) (map[string]float64, error) {
		B := bufferUnits(int(m * float64(cl.MaxFrameSize())))
		row := map[string]float64{}
		r := core.AcquireRunner()
		defer core.ReleaseRunner(r)
		for _, pol := range []struct {
			name string
			f    drop.Factory
		}{{"taildrop", drop.TailDrop}, {"greedy", drop.Greedy}} {
			s, err := r.Run(st, core.Config{ServerBuffer: B, Rate: R, Policy: pol.f})
			if err != nil {
				return nil, err
			}
			p := trace.Glitches(cl, func(i int) bool { return s.At(i).Played() })
			row[pol.name+"-glitches"] = p.PerKiloframe
			row[pol.name+"-longest"] = float64(p.Longest)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// TableAdaptive sweeps the RCBR renegotiation window: frequent
// renegotiation tracks the stream tightly (low reserved bandwidth, low
// loss) at high signalling cost; infrequent renegotiation approaches plain
// CBR. The static CBR operating point appears in the notes.
func TableAdaptive(c Config) (*Table, error) {
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
	B := 6 * cl.MaxFrameSize()

	// Static CBR reference at 1.1 x avg with the same buffer.
	r := core.AcquireRunner()
	static, err := r.Run(st, core.Config{ServerBuffer: B, Rate: int(1.1 * avg), Policy: drop.Greedy})
	if err != nil {
		core.ReleaseRunner(r)
		return nil, err
	}
	staticLoss := static.WeightedLoss()
	core.ReleaseRunner(r)

	t := &Table{
		ID:     "adaptive",
		Title:  "Online renegotiated CBR: window vs reservation vs loss (intro, alt. 5)",
		XLabel: "window W",
		YLabel: "(see series)",
		Series: []string{"renegs/kstep", "mean-reserved/avg", "peak/avg", "wloss%"},
		Notes: []string{
			fmt.Sprintf("frames=%d buffer=%d greedy policy; headroom 1.2", c.Frames, B),
			fmt.Sprintf("static CBR at 1.1 x avg with the same buffer: wloss %.2f%%",
				100*staticLoss),
		},
	}
	windows := []int{2, 4, 8, 16, 32, 64, 128}
	if c.Quick {
		windows = []int{4, 16, 64}
	}
	err = t.sweepRowsInt(c, windows, func(w int) (map[string]float64, error) {
		res, err := adaptive.Run(st, B, adaptive.Config{Window: w, Headroom: 1.2}, drop.Greedy)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"renegs/kstep":      1000 * float64(res.Renegotiations) / float64(res.Steps),
			"mean-reserved/avg": res.MeanReserved / avg,
			"peak/avg":          float64(res.PeakRate) / avg,
			"wloss%":            100 * res.WeightedLoss,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// TableAdmission validates Chernoff-bound admission control against
// measured overflow of independent synthetic streams, and shows how much
// further a shared smoothing buffer pushes the real loss below the
// bufferless bound.
func TableAdmission(c Config) (*Table, error) {
	c = c.withDefaults()
	frames := c.Frames
	// Training trace for the MGF estimate.
	train, err := demandVector(c.Seed, frames)
	if err != nil {
		return nil, err
	}
	var mean float64
	for _, x := range train {
		mean += float64(x)
	}
	mean /= float64(len(train))

	const kMax = 12
	// Independent test streams.
	streams := make([][]int, kMax)
	for i := range streams {
		streams[i], err = demandVector(c.Seed+int64(i)*977+1, frames)
		if err != nil {
			return nil, err
		}
	}

	t := &Table{
		ID:     "admission",
		Title:  "Chernoff admission bound vs measured overflow (effective bandwidth)",
		XLabel: "streams K",
		YLabel: "per-step overflow probability",
		Series: []string{"chernoff-bound", "measured-bufferless"},
		Notes: []string{
			fmt.Sprintf("capacity C = 8 x mean demand (%.0f units/step); %d-frame traces", 8*mean, frames),
			"the bound is trained on one trace and tested on independent ones",
		},
	}
	C := 8 * mean
	ks := []int{5, 6, 7, 8, 9, 10}
	if c.Quick {
		ks = []int{6, 8, 10}
	}
	err = t.sweepRowsInt(c, ks, func(k int) (map[string]float64, error) {
		exp, err := admission.ChernoffExponent(train, k, C)
		if err != nil {
			return nil, err
		}
		measured, err := admission.MeasuredOverflow(streams[:k], C)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"chernoff-bound":      math.Exp(exp),
			"measured-bufferless": measured,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// demandVector generates one clip's per-step demand.
func demandVector(seed int64, frames int) ([]int, error) {
	gc := trace.DefaultGenConfig()
	gc.Frames = frames
	gc.Seed = seed
	clip, err := trace.Generate(gc)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(clip.Frames))
	for i, f := range clip.Frames {
		out[i] = f.Size
	}
	return out, nil
}
