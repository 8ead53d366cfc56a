package drop_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/stream"
	"repro/internal/trace"
)

// TestGreedyStacksTrackLiveRuns runs greedy through the server on the
// paper-scale clip, byte-sliced and whole-frame, below and above the
// average rate, with a buffer of one largest frame and of 26 (the largest
// of Figs. 2–3), and checks after every step that the value stacks hold at most twice the live
// runs plus 16 entries. Runs that end below the oldest live slice must
// leave their stacks: otherwise the I-frame stack, which is never the
// victims' stack, would grow with the stream, and every fork would copy it.
func TestGreedyStacksTrackLiveRuns(t *testing.T) {
	clip, err := trace.Generate(trace.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []struct {
		name  string
		build func(*trace.Clip, trace.WeightMap) (*stream.Stream, error)
	}{{"bytes", trace.ByteSliceStream}, {"frames", trace.WholeFrameStream}} {
		st, err := model.build(clip, trace.PaperWeights())
		if err != nil {
			t.Fatal(err)
		}
		for _, factor := range []float64{0.9, 1.1} {
			for _, multiple := range []int{1, 26} {
				R, B := int(factor*clip.AverageRate()+0.5), multiple*clip.MaxFrameSize()
				t.Run(fmt.Sprintf("%s/R=%d/B=%d", model.name, R, B), func(t *testing.T) {
					pol := drop.Greedy()
					defer drop.Recycle(pol)
					sv := core.NewServer(B, R, pol, core.ServerOptions{})
					most := 0
					for step := 0; step <= st.Horizon() || !sv.Empty(); step++ {
						sv.Step(step, st.RunsAt(step))
						entries, live := drop.GreedyShape(pol)
						if entries > 2*live+16 {
							t.Fatalf("step %d: %d stack entries for %d live runs", step, entries, live)
						}
						most = max(most, entries)
					}
					t.Logf("at most %d stack entries", most)
				})
			}
		}
	}
}
