package core

import (
	"fmt"

	"repro/internal/drop"
	"repro/internal/freelist"
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
// (AcquireRunner/ReleaseRunner keep a free list of them).
type Runner struct {
	server Server
	client Client
	link   pipe
	out    sched.Schedule
	rec    Recorder
	// policy is the server's drop policy for the current run; the next
	// reset, or the end of a Run, recycles it.
	policy drop.Policy

	// algo caches the "generic/<policy>" algorithm string so repeated runs
	// with the same policy do not concatenate it again.
	algoPolicy string
	algo       string
}

// NewRunner returns an empty arena. The first Run grows every backing array
// to the stream's working size; subsequent runs reuse them.
func NewRunner() *Runner { return &Runner{} }

var freeRunners freelist.List[Runner]

// AcquireRunner returns a recycled arena, or a new one. Pair with
// ReleaseRunner.
func AcquireRunner() *Runner { return freeRunners.Get(NewRunner) }

// ReleaseRunner returns an arena to the free list. The schedules the arena
// produced must no longer be in use: another goroutine may acquire the
// arena and overwrite them.
func ReleaseRunner(r *Runner) { freeRunners.Put(r) }

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

// Components readies the arena for a run of st under cfg and returns its
// recorder, server and client, for callers that drive their own step loop
// (package linksim puts a jittery link and a regulator between server and
// client) and pass every step's results to Recorder.Record. All three, and
// the schedule the recorder fills, belong to the arena: the next Run or
// Components call overwrites them, as it does Run's schedule.
func (r *Runner) Components(st *stream.Stream, cfg Config) (*Recorder, *Server, *Client, error) {
	if _, err := r.reset(st, cfg); err != nil {
		return nil, nil, nil, err
	}
	return &r.rec, &r.server, &r.client, nil
}

// reset resolves cfg for a run over st, draws a drop policy (recycling the
// previous run's) and resets every component of the arena. It returns the
// resolved config.
func (r *Runner) reset(st *stream.Stream, cfg Config) (Config, error) {
	cfg, err := cfg.withDefaults(st)
	if err != nil {
		return cfg, err
	}
	r.recyclePolicy()
	r.policy = cfg.Policy()
	if name := r.policy.Name(); r.algo == "" || r.algoPolicy != name {
		r.algoPolicy = name
		r.algo = "generic/" + name
	}
	cfg.resetSchedule(&r.out, st, r.algo)
	r.rec.reset(&r.out)
	r.server.Reset(cfg.ServerBuffer, cfg.Rate, r.policy, cfg.serverOptions())
	r.client.Reset(cfg.ClientBuffer, cfg.Delay, cfg.LinkDelay, st)
	r.link.reset(cfg.LinkDelay)
	return cfg, nil
}

// recyclePolicy hands the run's policy back to its free list; the server
// holds it only between Reset calls.
func (r *Runner) recyclePolicy() {
	if r.policy != nil {
		drop.Recycle(r.policy)
		r.policy = nil
	}
}

// run is the simulation loop proper, shared by Runner.Run (recycled result)
// and Simulate (fresh arena per call, so the result is genuinely owned).
func (r *Runner) run(st *stream.Stream, cfg Config) (*sched.Schedule, error) {
	cfg, err := r.reset(st, cfg)
	if err != nil {
		return nil, err
	}
	defer r.recyclePolicy()

	out := &r.out
	bound := cfg.stepBound(st)
	for t := 0; t <= st.Horizon() || r.rec.resolved < st.Len() || !r.server.Empty() || !r.link.empty(); t++ {
		res := r.server.Step(t, st.RunsAt(t))
		r.link.push(res.Sent)
		r.rec.Record(t, &r.server, res, r.client.Step(t, r.link.pop()))

		if t > bound {
			// Defensive: the loop provably terminates by then, so this
			// indicates a bug.
			return nil, fmt.Errorf("core: simulation failed to terminate by step %d", t)
		}
	}
	r.rec.merge()
	return out, nil
}
