package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
	// reset, or Finish, recycles it.
	policy drop.Policy

	// The run in progress (see Start): its stream, resolved config and
	// step bound, and the next step to simulate. live is false before
	// Start and after Finish.
	st    *stream.Stream
	cfg   Config
	bound int
	next  int
	live  bool

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
// Simulate, but into the arena's recycled state. It is Start followed by
// Finish.
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

// run is Start and Finish, shared by Runner.Run (recycled result) and
// Simulate (fresh arena per call, so the result is genuinely owned).
func (r *Runner) run(st *stream.Stream, cfg Config) (*sched.Schedule, error) {
	if err := r.Start(st, cfg); err != nil {
		return nil, err
	}
	return r.finish()
}

// Start readies the arena for a stepwise run of st under cfg: Advance
// simulates it up to a step, ForkInto copies it onto another arena, and
// Finish simulates the rest and returns the schedule.
func (r *Runner) Start(st *stream.Stream, cfg Config) error {
	cfg, err := r.reset(st, cfg)
	if err != nil {
		return err
	}
	r.st, r.cfg, r.bound, r.next, r.live = st, cfg, cfg.stepBound(st), 0, true
	return nil
}

// Advance simulates the run up to and including step t, or until it ends
// if that is sooner.
func (r *Runner) Advance(t int) error {
	if !r.live {
		return errNotLive
	}
	return r.advance(t)
}

// Finish simulates the rest of the run, recycles its drop policy and
// returns the schedule, which aliases the arena like Run's.
//
//smoothvet:aliased
func (r *Runner) Finish() (*sched.Schedule, error) { return r.finish() }

func (r *Runner) finish() (*sched.Schedule, error) {
	if !r.live {
		return nil, errNotLive
	}
	r.live = false
	defer r.recyclePolicy()
	if err := r.advance(math.MaxInt); err != nil {
		return nil, err
	}
	r.rec.merge()
	return &r.out, nil
}

var errNotLive = errors.New("core: no run in progress (Start one first)")

// ForkInto makes dst a copy of the run in progress that continues on st2
// instead of the current stream: the server's buffer and drop policy (see
// drop.Clone), the link, the client and the recorder, copied into dst's
// own backing arrays. An online run cannot see arrivals before they come,
// so the copy is in the state a run of st2 would be in, provided st2
// agrees with the current stream on every run arriving up to the last
// step simulated, and does not end before that step (a run of st2 could
// have stopped earlier); ForkInto returns an error otherwise, and when the
// policy cannot be cloned, and leaves dst as it was. The run in progress
// is not changed. A random policy shares its draw tape with the copy, so
// the two runs must be stepped on one goroutine (either arena may be
// recycled on another once it is done).
func (r *Runner) ForkInto(dst *Runner, st2 *stream.Stream) error {
	if !r.live {
		return errNotLive
	}
	if dst == r {
		return errors.New("core: a run cannot be forked onto its own arena")
	}
	if last := r.next - 1; last >= 0 {
		if st2.Horizon() < last {
			return fmt.Errorf("core: fork at step %d onto a stream that ends at step %d", last, st2.Horizon())
		}
		if !slices.Equal(r.st.RunsThrough(last), st2.RunsThrough(last)) {
			return fmt.Errorf("core: fork at step %d onto a stream whose arrivals differ by then", last)
		}
	}
	cfg, err := r.cfg.withDefaults(st2)
	if err != nil {
		return err
	}
	p, err := drop.Clone(r.policy, dst.policy)
	if err != nil {
		return err
	}
	dst.policy, dst.algoPolicy, dst.algo = p, r.algoPolicy, r.algo
	dst.st, dst.cfg, dst.bound, dst.next, dst.live = st2, cfg, cfg.stepBound(st2), r.next, true
	cfg.resetSchedule(&dst.out, st2, dst.algo)
	dst.rec.copyFrom(&r.rec, &dst.out)
	dst.server.copyFrom(&r.server, p)
	dst.client.copyFrom(&r.client, st2)
	dst.link.copyFrom(&r.link)
	return nil
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
	r.live = false
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

// advance is the simulation loop proper: it simulates steps until step
// last is done or the run ends, whichever is sooner.
func (r *Runner) advance(last int) error {
	st := r.st
	for t := r.next; t <= last && (t <= st.Horizon() || r.rec.resolved < st.Len() || !r.server.Empty() || !r.link.empty()); t++ {
		if t > r.bound {
			// Defensive: the loop provably terminates by then, so this
			// indicates a bug.
			return fmt.Errorf("core: simulation failed to terminate by step %d", t)
		}
		res := r.server.Step(t, st.RunsAt(t))
		r.link.push(res.Sent)
		r.rec.Record(t, &r.server, res, r.client.Step(t, r.link.pop()))
		r.next = t + 1
	}
	return nil
}
