package sched_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/stream"
)

// Example inspects the schedule a simulation produces: the fate of each
// span of slices, aggregate metrics, and the model validator.
func Example() {
	st := stream.NewBuilder().
		Add(0, 1, 1).Add(0, 1, 1).Add(0, 1, 9).
		MustBuild()
	s, _ := core.Simulate(st, core.Config{ServerBuffer: 1, Rate: 1, Policy: drop.Greedy})

	fmt.Printf("valid: %v\n", s.Validate() == nil)
	fmt.Printf("benefit %v of %v (weighted loss %.0f%%)\n",
		s.Benefit(), st.TotalWeight(), 100*s.WeightedLoss())
	for _, o := range s.Outcomes {
		switch {
		case o.Played():
			fmt.Printf("slices [%d,%d): played at %d\n", o.First, o.End, o.PlayTime)
		default:
			fmt.Printf("slices [%d,%d): dropped at %d (%s)\n", o.First, o.End, o.DropTime, o.DropSite)
		}
	}
	// Output:
	// valid: true
	// benefit 10 of 11 (weighted loss 9%)
	// slices [0,1): played at 1
	// slices [1,2): dropped at 0 (server)
	// slices [2,3): played at 1
}

// Example_rateStats summarizes the transmission-rate process.
func Example_rateStats() {
	st := stream.NewBuilder().AddFrame(0, 1, 1, 1, 1).MustBuild()
	s, _ := core.Simulate(st, core.Config{ServerBuffer: 4, Rate: 2})
	rs := s.RateStats()
	fmt.Printf("mean %.0f, peak %d, utilization %.0f%%\n", rs.Mean, rs.Peak, 100*rs.Utilization)
	// Output:
	// mean 2, peak 2, utilization 100%
}
