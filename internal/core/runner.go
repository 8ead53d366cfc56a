package core

import (
	"fmt"
	"sync"

	"repro/internal/drop"
	"repro/internal/sched"
	"repro/internal/stream"
)

// Runner is a reusable simulation arena: it owns a Server, a Client, a link
// pipe and a sched.Schedule backing store, all recycled between runs. The
// figure/table sweeps run thousands of short simulations; with a per-worker
// Runner every run after the first completes without allocating, which is
// what lets the sweeps scale with cores instead of with the garbage
// collector.
//
// A Runner is not safe for concurrent use; give each goroutine its own
// (AcquireRunner/ReleaseRunner pool them).
type Runner struct {
	server Server
	client Client
	link   pipe
	out    sched.Schedule
	rec    Recorder

	// algo caches the "generic/<policy>" algorithm string so repeated runs
	// with the same policy do not concatenate it again.
	algoPolicy string
	algo       string
}

// NewRunner returns an empty arena. The first Run grows every backing array
// to the stream's working size; subsequent runs reuse them.
func NewRunner() *Runner { return &Runner{} }

var runnerPool = sync.Pool{New: func() any { return NewRunner() }}

// AcquireRunner returns a pooled arena. Pair with ReleaseRunner.
func AcquireRunner() *Runner { return runnerPool.Get().(*Runner) }

// ReleaseRunner returns an arena to the pool. The schedules the arena
// produced must no longer be in use: another goroutine may acquire the
// arena and overwrite them.
func ReleaseRunner(r *Runner) { runnerPool.Put(r) }

// Run simulates the generic algorithm for the whole stream, exactly like
// Simulate, but into the arena's recycled state.
//
// The returned schedule (including its Outcomes and occupancy traces)
// aliases memory owned by the Runner and is overwritten by the next Run
// call; callers that need it afterwards must copy (sched.Schedule values
// can be deep-copied via their exported fields) or use Simulate.
//
//smoothvet:aliased
func (r *Runner) Run(st *stream.Stream, cfg Config) (*sched.Schedule, error) {
	return r.run(st, cfg)
}

// run is the simulation loop proper, shared by Runner.Run (recycled result)
// and Simulate (fresh arena per call, so the result is genuinely owned).
func (r *Runner) run(st *stream.Stream, cfg Config) (*sched.Schedule, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	policy := cfg.Policy()
	// The policy is handed back to its pool at the end of the run; the
	// server holds it only between Reset calls.
	defer drop.Recycle(policy)

	if name := policy.Name(); r.algo == "" || r.algoPolicy != name {
		r.algoPolicy = name
		r.algo = "generic/" + name
	}

	out := &r.out
	cfg.resetSchedule(out, st, r.algo)
	r.rec.reset(out)
	r.server.Reset(cfg.ServerBuffer, cfg.Rate, policy, cfg.serverOptions())
	r.client.Reset(cfg.ClientBuffer, cfg.Delay, cfg.LinkDelay, st)
	r.link.reset(cfg.LinkDelay)

	for t := 0; t <= st.Horizon() || r.rec.resolved < st.Len() || !r.server.Empty() || !r.link.empty(); t++ {
		res := r.server.Step(t, st.RunsAt(t))
		r.link.push(res.Sent)
		r.rec.Record(t, &r.server, res, r.client.Step(t, r.link.pop()))

		if t > st.Horizon()+cfg.LinkDelay+cfg.Delay+totalSteps(st, cfg.Rate)+8 {
			// Defensive: the loop provably terminates (the server sends R
			// bytes per non-empty step), so this indicates a bug.
			return nil, fmt.Errorf("core: simulation failed to terminate by step %d", t)
		}
	}
	return out, nil
}

// Recorder fills a sched.Schedule from the step results of a Server and a
// Client: every slice's send span, its play time or its drop time and
// site, and the per-step traces. Runner drives one, and so do callers that
// put their own link between server and client (see NewComponents).
type Recorder struct {
	out      *sched.Schedule
	resolved int

	// pendingLate tracks slices the client has given up on (their play
	// time passed) while their bytes are still in the server buffer; they
	// are resolved when those bytes finally leave the server, so that the
	// recorded occupancies stay exact. It is empty whenever B = R·D holds
	// (Lemma 3.3), so a small map is fine here.
	pendingLate map[int]int
}

// reset readies the recorder to fill out, whose outcomes are all
// unresolved and whose traces are empty.
func (rec *Recorder) reset(out *sched.Schedule) {
	rec.out, rec.resolved = out, 0
	if rec.pendingLate == nil {
		rec.pendingLate = make(map[int]int)
	}
	clear(rec.pendingLate)
}

// Schedule returns the schedule the recorder fills.
func (rec *Recorder) Schedule() *sched.Schedule { return rec.out }

// Resolved returns how many slices have their fate recorded: played, or
// dropped at the server or the client.
func (rec *Recorder) Resolved() int { return rec.resolved }

// Record notes step t: first res, the step result of sv, then cres, the
// step result of the client.
func (rec *Recorder) Record(t int, sv *Server, res ServerStepResult, cres ClientStepResult) {
	out := rec.out
	for _, d := range res.Dropped {
		for id := d.First; id < d.End(); id++ {
			// A slice the client had already declared late may now be
			// physically discarded by the server (proactive late drop);
			// the server is the drop site — that is where the bytes died.
			delete(rec.pendingLate, id)
			if out.Outcomes[id].DropTime == sched.None {
				out.Outcomes[id].DropTime = t
				out.Outcomes[id].DropSite = sched.SiteServer
				rec.resolved++
			}
		}
	}
	for _, b := range res.Sent {
		first, end := b.Started()
		for id := first; id < end; id++ {
			out.Outcomes[id].SendStart = t
		}
		first, end = b.Finished()
		for id := first; id < end; id++ {
			out.Outcomes[id].SendEnd = t
			if len(rec.pendingLate) == 0 {
				continue
			}
			if lateAt, ok := rec.pendingLate[id]; ok {
				// The slice's bytes have fully left the server; the client
				// discarded (or will discard) them on arrival. It counts
				// as lost at the client from its play time on.
				delete(rec.pendingLate, id)
				out.Outcomes[id].DropTime = lateAt
				out.Outcomes[id].DropSite = sched.SiteClient
				rec.resolved++
			}
		}
	}

	for _, s := range cres.Played {
		for id := s.First; id < s.End; id++ {
			out.Outcomes[id].PlayTime = t
		}
		rec.resolved += s.End - s.First
	}
	for _, s := range cres.Dropped {
		for id := s.First; id < s.End; id++ {
			// The client reports every scheduled slice it could not play;
			// slices the server already dropped were resolved upstream,
			// and slices still (partly) at the server are resolved when
			// their bytes leave it.
			if out.Outcomes[id].DropTime != sched.None {
				continue
			}
			if sv.Contains(id) {
				rec.pendingLate[id] = t
				continue
			}
			out.Outcomes[id].DropTime = t
			out.Outcomes[id].DropSite = sched.SiteClient
			rec.resolved++
		}
	}

	out.SentPerStep = append(out.SentPerStep, res.SentBytes)
	out.ServerOcc = append(out.ServerOcc, res.Occupancy)
	out.ClientOcc = append(out.ClientOcc, cres.Occupancy)
}
