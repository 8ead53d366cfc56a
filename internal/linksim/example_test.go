package linksim_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/linksim"
	"repro/internal/stream"
)

// Example runs the same smoothing session over a link with up to 3 steps
// of jitter, with and without the jitter-control regulator of Section 2.2.
func Example() {
	b := stream.NewBuilder()
	for t := 0; t < 40; t++ {
		b.Add(t, 2, 2)
	}
	st := b.MustBuild()
	cfg := core.Config{ServerBuffer: 4, Rate: 2, LinkDelay: 1}
	r := core.NewRunner() // one arena for both runs

	raw, _ := linksim.SimulateUnregulated(r, st, cfg, 3, 7)
	fmt.Printf("no regulator:   %d of %d slices played\n", raw.Played, st.Len())

	sch, regBuf, _ := linksim.Simulate(r, st, cfg, 3, 7)
	played := 0
	for _, o := range sch.Outcomes {
		if o.Played() {
			played += o.Len()
		}
	}
	fmt.Printf("with regulator: %d of %d played, total delay P+J = %d, regulator buffer %d\n",
		played, st.Len(), sch.Params.LinkDelay, regBuf)
	// Output:
	// no regulator:   32 of 40 slices played
	// with regulator: 40 of 40 played, total delay P+J = 4, regulator buffer 8
}
