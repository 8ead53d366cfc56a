package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/stream"
	"repro/internal/trace"
)

// TableSmartWeights asks whether the paper's fixed 12:8:1 weights are the
// right input to the greedy policy, or whether weights derived from the
// actual decode-dependency damage (trace.DependencyWeights) buy more
// *decodable* frames. Both weightings steer the SAME greedy policy; the
// judge is the dependency-aware decodable fraction, which neither policy
// optimizes directly.
func TableSmartWeights(c Config) (*Table, error) {
	c = c.withDefaults()
	cl, err := c.clip()
	if err != nil {
		return nil, err
	}
	paper, err := trace.WholeFrameStream(cl, trace.PaperWeights())
	if err != nil {
		return nil, err
	}
	smart, err := trace.WeightedStream(cl, trace.DependencyWeights(cl))
	if err != nil {
		return nil, err
	}
	R := rateFor(cl, 0.9)
	t := &Table{
		ID:     "smartweights",
		Title:  "Greedy input weights: the paper's 12:8:1 vs decode-damage-derived",
		XLabel: "buffer/maxframe",
		YLabel: "% decodable frames",
		Series: []string{"paper-12-8-1", "dependency-derived", "taildrop-reference"},
		Notes: []string{
			fmt.Sprintf("frames=%d R=%d (0.9 x avg); whole-frame slices; judged on", c.Frames, R),
			"the decodable fraction under I<-P<-B reference chains.",
			"Finding: the two weightings coincide — greedy's choices are almost",
			"always 'B frame vs anchor', and any weighting with B << {P, I} makes",
			"them identically. The paper's 12:8:1 needs no tuning; only the",
			"ordinal structure matters.",
		},
	}
	multiples := []float64{1, 2, 4, 8, 16}
	if c.Quick {
		multiples = []float64{1, 4, 16}
	}
	err = t.sweepRows(c, multiples, func(m float64) (map[string]float64, error) {
		B := bufferUnits(int(m * float64(cl.MaxFrameSize())))
		r := core.AcquireRunner()
		defer core.ReleaseRunner(r)
		// One arena for all three runs: each schedule's decodable fraction
		// is extracted before the next run overwrites it.
		decodable := func(st *stream.Stream, f drop.Factory) (float64, error) {
			s, err := r.Run(st, core.Config{ServerBuffer: B, Rate: R, Policy: f})
			if err != nil {
				return 0, err
			}
			return 100 * trace.Decodability(cl, func(i int) bool { return s.At(i).Played() }).DecodableFraction(), nil
		}
		fPaper, err := decodable(paper, drop.Greedy)
		if err != nil {
			return nil, err
		}
		fSmart, err := decodable(smart, drop.Greedy)
		if err != nil {
			return nil, err
		}
		fTail, err := decodable(paper, drop.TailDrop)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"paper-12-8-1":       fPaper,
			"dependency-derived": fSmart,
			"taildrop-reference": fTail,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
