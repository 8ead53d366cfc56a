package offline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/stream"
)

// ScheduleFor materializes an optimal Result into a complete, validated
// sched.Schedule on the ORIGINAL stream: accepted slices are transmitted
// work-conservingly in FIFO order (replayed through the real simulator on
// the accepted sub-stream), rejected slices are recorded as server drops at
// their arrival steps. The returned schedule passes sched.Validate and can
// be inspected with the usual metrics, Report and Timeline — i.e. you can
// SEE what the optimum does, not just its benefit.
func ScheduleFor(st *stream.Stream, res *Result, B, R int) (*sched.Schedule, error) {
	if err := Verify(st, res, B, R); err != nil {
		return nil, err
	}
	// Build the accepted sub-stream; Restrict preserves order, so the
	// k-th accepted original slice becomes restricted slice k.
	keep := make(map[int]bool, st.Len())
	for id, ok := range res.Accepted {
		if ok {
			keep[id] = true
		}
	}
	sub := st.Restrict(keep)
	if sub.Len() != len(keep) {
		return nil, fmt.Errorf("offline: restrict produced %d slices, expected %d", sub.Len(), len(keep))
	}
	subSched, err := core.Simulate(sub, core.Config{ServerBuffer: B, Rate: R})
	if err != nil {
		return nil, err
	}
	// The accepted set is feasible, so the replay must lose nothing.
	if subSched.DroppedSlices() != 0 {
		return nil, fmt.Errorf("offline: replay of a feasible accepted set dropped %d slices",
			subSched.DroppedSlices())
	}

	out := &sched.Schedule{
		Stream:      st,
		Params:      subSched.Params,
		SentPerStep: subSched.SentPerStep,
		ServerOcc:   subSched.ServerOcc,
		ClientOcc:   subSched.ClientOcc,
		Algorithm:   "offline-optimal",
	}
	subID := 0
	for _, r := range st.Runs() {
		for id := r.First; id < r.End(); id++ {
			o := sched.Outcome{
				SendStart: sched.None, SendEnd: sched.None,
				DropTime: r.Arrival, DropSite: sched.SiteServer,
				PlayTime: sched.None,
			}
			if res.Accepted[id] {
				o = subSched.At(subID)
				subID++
			}
			o.First, o.End = id, id+1
			out.Outcomes = sched.AppendSpan(out.Outcomes, o)
		}
	}
	return out, nil
}
