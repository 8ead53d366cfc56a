package core_test

// Oracle test for core.Recorder: the per-slice recorder it replaced is kept
// below as the reference, and both are driven from the same server, link
// and client step results. After every step the span-based schedule must
// give every slice the reference's fate, count the same resolved slices,
// and hold a maximal span list.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/linksim"
	"repro/internal/sched"
	"repro/internal/stream"
)

// perSliceRecorder is the per-slice Recorder core used before outcomes were
// kept per span, with its schedule reduced to the outcome array it filled:
// outcomes[id] is the fate of slice id.
type perSliceRecorder struct {
	outcomes []sched.Outcome
	resolved int

	// pendingLate tracks slices the client has given up on (their play
	// time passed) while their bytes are still in the server buffer; they
	// are resolved when those bytes finally leave the server, so that the
	// recorded occupancies stay exact. It is empty whenever B = R·D holds
	// (Lemma 3.3), so a small map is fine here.
	pendingLate map[int]int
}

func newPerSliceRecorder(n int) *perSliceRecorder {
	rec := &perSliceRecorder{outcomes: make([]sched.Outcome, n), pendingLate: make(map[int]int)}
	for i := range rec.outcomes {
		rec.outcomes[i] = sched.Outcome{SendStart: sched.None, SendEnd: sched.None, DropTime: sched.None, PlayTime: sched.None}
	}
	return rec
}

// Record notes step t: first res, the step result of sv, then cres, the
// step result of the client.
func (rec *perSliceRecorder) Record(t int, sv *core.Server, res core.ServerStepResult, cres core.ClientStepResult) {
	for _, d := range res.Dropped {
		for id := d.First; id < d.End(); id++ {
			// A slice the client had already declared late may now be
			// physically discarded by the server (proactive late drop);
			// the server is the drop site — that is where the bytes died.
			delete(rec.pendingLate, id)
			if rec.outcomes[id].DropTime == sched.None {
				rec.outcomes[id].DropTime = t
				rec.outcomes[id].DropSite = sched.SiteServer
				rec.resolved++
			}
		}
	}
	for _, b := range res.Sent {
		first, end := b.Started()
		for id := first; id < end; id++ {
			rec.outcomes[id].SendStart = t
		}
		first, end = b.Finished()
		for id := first; id < end; id++ {
			rec.outcomes[id].SendEnd = t
			if len(rec.pendingLate) == 0 {
				continue
			}
			if lateAt, ok := rec.pendingLate[id]; ok {
				// The slice's bytes have fully left the server; the client
				// discarded (or will discard) them on arrival. It counts
				// as lost at the client from its play time on.
				delete(rec.pendingLate, id)
				rec.outcomes[id].DropTime = lateAt
				rec.outcomes[id].DropSite = sched.SiteClient
				rec.resolved++
			}
		}
	}

	for _, s := range cres.Played {
		for id := s.First; id < s.End; id++ {
			rec.outcomes[id].PlayTime = t
		}
		rec.resolved += s.End - s.First
	}
	for _, s := range cres.Dropped {
		for id := s.First; id < s.End; id++ {
			// The client reports every scheduled slice it could not play;
			// slices the server already dropped were resolved upstream,
			// and slices still (partly) at the server are resolved when
			// their bytes leave it.
			if rec.outcomes[id].DropTime != sched.None {
				continue
			}
			if sv.Contains(id) {
				rec.pendingLate[id] = t
				continue
			}
			rec.outcomes[id].DropTime = t
			rec.outcomes[id].DropSite = sched.SiteClient
			rec.resolved++
		}
	}
}

// spansOf turns a per-slice outcome array (index = slice ID) into the
// maximal span list of a sched.Schedule.
func spansOf(perSlice []sched.Outcome) []sched.Outcome {
	var spans []sched.Outcome
	for id, o := range perSlice {
		o.First, o.End = id, id+1
		spans = sched.AppendSpan(spans, o)
	}
	return spans
}

// Link modes of the oracle drive.
const (
	linkConstant    = iota // constant delay P
	linkRegulated          // jitter in [0, J], regulated to P+J
	linkUnregulated        // jitter in [0, J], client expects P
	linkModes
)

// oracleCase is one drive of both recorders.
type oracleCase struct {
	st      *stream.Stream
	cfg     core.Config
	mode    int
	jitter  int
	linkRNG int64
}

func (c oracleCase) String() string {
	return fmt.Sprintf("B=%d Bc=%d R=%d D=%d P=%d late=%v mode=%d J=%d",
		c.cfg.ServerBuffer, c.cfg.ClientBuffer, c.cfg.Rate, c.cfg.Delay, c.cfg.LinkDelay,
		c.cfg.ServerDropsLate, c.mode, c.jitter)
}

// checkRecorderAgainstPerSlice drives a core.Recorder and the per-slice
// reference from the same components and compares them after every step.
func checkRecorderAgainstPerSlice(t *testing.T, c oracleCase) {
	t.Helper()
	cfg := c.cfg
	jitter := c.jitter
	if c.mode == linkConstant {
		jitter = 0
	}
	if c.mode == linkRegulated {
		cfg.LinkDelay += jitter
	}
	rec, sv, cl, err := core.NewRunner().Components(c.st, cfg)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	ref := newPerSliceRecorder(c.st.Len())
	link, err := linksim.NewJitterLink(c.cfg.LinkDelay, jitter, c.linkRNG)
	if err != nil {
		t.Fatal(err)
	}
	reg := linksim.NewRegulator(c.cfg.LinkDelay + jitter)
	params := rec.Schedule().Params
	bound := c.st.Horizon() + params.LinkDelay + jitter + params.Delay + c.st.TotalBytes()/params.Rate + 16
	n := c.st.Len()
	for step := 0; step <= c.st.Horizon() || rec.Resolved() < n || !sv.Empty() || !link.Empty() || !reg.Empty(); step++ {
		if step > bound {
			t.Fatalf("%v: no termination by step %d", c, step)
		}
		res := sv.Step(step, c.st.RunsAt(step))
		link.Push(step, res.Sent)
		var delivered []core.Batch
		if c.mode == linkUnregulated {
			for _, b := range link.Pop(step) {
				delivered = append(delivered, b.Batch)
			}
		} else {
			reg.Offer(step, link.Pop(step))
			delivered = reg.Release(step)
		}
		cres := cl.Step(step, delivered)
		rec.Record(step, sv, res, cres)
		ref.Record(step, sv, res, cres)

		if rec.Resolved() != ref.resolved {
			t.Fatalf("%v: step %d: Resolved() = %d, per-slice reference %d", c, step, rec.Resolved(), ref.resolved)
		}
		s := rec.Schedule()
		end := 0
		for i, o := range s.Outcomes {
			if o.First != end || o.End <= o.First {
				t.Fatalf("%v: step %d: span %d is [%d,%d), want it to start at %d and be non-empty",
					c, step, i, o.First, o.End, end)
			}
			if i > 0 && o.SameFate(s.Outcomes[i-1]) {
				t.Fatalf("%v: step %d: spans %d and %d share a fate: %+v", c, step, i-1, i, o)
			}
			end = o.End
		}
		if end != n {
			t.Fatalf("%v: step %d: spans cover [0,%d) of [0,%d)", c, step, end, n)
		}
		for id, want := range ref.outcomes {
			if got := s.At(id); got.First > id || got.End <= id || !got.SameFate(want) {
				t.Fatalf("%v: step %d: slice %d: At = %+v, per-slice reference %+v", c, step, id, got, want)
			}
		}
	}
	if rec.Resolved() != n {
		t.Fatalf("%v: %d of %d slices resolved", c, rec.Resolved(), n)
	}
}

// oracleCaseFor derives a drive from fuzz inputs: a random run-shaped
// stream with mixed sizes, and a configuration that ranges from lawful to
// under-provisioned delays and small client buffers, so client-late
// slices wait on the server.
func oracleCaseFor(seed int64, policy, linkDelay, mode, jitter, knobs uint8) oracleCase {
	rng := rand.New(rand.NewSource(seed))
	st := mixedRunStream(seed, 10+rng.Intn(40))
	rate := 2 + rng.Intn(20)
	buffer := max(rate*(1+rng.Intn(5))-rng.Intn(3), 1) // may not fit a size-4 slice
	cfg := core.Config{
		ServerBuffer:    buffer,
		Rate:            rate,
		LinkDelay:       int(linkDelay % 4),
		ServerDropsLate: knobs&1 != 0,
		Policy:          goldenPolicies()[int(policy)%len(goldenPolicies())].factory,
	}
	if knobs&2 != 0 {
		cfg.Delay = 1 + rng.Intn(3) // under-provisioned: D < B/R
	}
	if knobs&4 != 0 {
		cfg.ClientBuffer = 1 + rng.Intn(2*rate) // client overflow
	}
	return oracleCase{st: st, cfg: cfg, mode: int(mode % linkModes), jitter: int(jitter % 4), linkRNG: seed}
}

// recorderSeeds are the committed fuzz seeds, which the table test also
// runs: every link mode and knob combination across all policies.
func recorderSeeds() [][6]uint8 {
	var seeds [][6]uint8
	for knobs := uint8(0); knobs < 8; knobs++ {
		for mode := uint8(0); mode < linkModes; mode++ {
			for policy := uint8(0); policy < uint8(len(goldenPolicies())); policy++ {
				seeds = append(seeds, [6]uint8{knobs*31 + mode*7 + policy, policy, policy + mode, mode, knobs + policy, knobs})
			}
		}
	}
	return seeds
}

func TestRecorderMatchesPerSlice(t *testing.T) {
	for _, s := range recorderSeeds() {
		checkRecorderAgainstPerSlice(t, oracleCaseFor(int64(s[0]), s[1], s[2], s[3], s[4], s[5]))
	}
}

func FuzzRecorderMatchesPerSlice(f *testing.F) {
	for _, s := range recorderSeeds() {
		f.Add(int64(s[0]), s[1], s[2], s[3], s[4], s[5])
	}
	f.Fuzz(func(t *testing.T, seed int64, policy, linkDelay, mode, jitter, knobs uint8) {
		checkRecorderAgainstPerSlice(t, oracleCaseFor(seed, policy, linkDelay, mode, jitter, knobs))
	})
}
