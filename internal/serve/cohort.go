package serve

import (
	"sync"

	"repro/internal/netstream"
)

// The cohort plan table is the engine's compute-once-serve-many layer.
// Per-session output is a pure function of (content, rate, delay, buffer,
// policy) — see the determinism contract in the package comment — so when
// many sessions play the same content at the same negotiated parameters
// there is exactly one schedule to compute and one byte stream to encode.
// A Cohort memoizes both: the full per-step send/drop plan of a session,
// replayed once through a real netstream.Sender + core.Server, with every
// step's batched wire flush captured into one immutable buffer. Serving a
// session then costs a slice index and a Write of pre-encoded bytes; no
// per-session smoothing buffer, drop policy, or encoder exists at all.
//
// Cohorts are immutable after construction and shared by every session of
// the cohort across all shards; the aliasing is safe because nothing ever
// writes to a cohort's wire buffer.

// cohortKey identifies one schedule within an engine. Rate, clip and
// policy are engine-wide, so the negotiated (delay, buffer) pair is the
// full key.
type cohortKey struct {
	delay  int
	buffer int
}

// Cohort is one precomputed serving plan: the concatenated wire bytes of
// every step's batched flush (the final step additionally carries the End
// marker) plus the cumulative drop counts the Sender reported step by step.
//
//smoothvet:frozen immutable once published through the plan table
type Cohort struct {
	key cohortKey
	// wire holds every step's encoded flush back to back; step i's bytes
	// are wire[off[i]:off[i+1]], so any run of steps is one contiguous
	// span. The last step's bytes include the end-of-stream marker, so a
	// completed session's byte stream is exactly wire — proven
	// byte-identical to a bare netstream.Sender's by
	// TestCohortGoldenEquivalence.
	wire []byte
	off  []int32
	// drops[i] is the total number of slices shed by the smoothing buffer
	// through step i inclusive.
	drops []int32
}

// Steps returns the number of model steps a cohort session runs.
func (c *Cohort) Steps() int { return len(c.off) - 1 }

// WireBytes returns the total size of the pre-encoded stream.
func (c *Cohort) WireBytes() int { return len(c.wire) }

// span returns the wire bytes from byte offset sent up to the end of step
// to: what a session that has written sent bytes still owes through that
// step. The result aliases the cohort's immutable buffer; callers must not
// mutate or retain it.
//
//smoothvet:aliased
//smoothvet:noalloc
func (c *Cohort) span(sent, to int32) []byte {
	return c.wire[sent:c.off[to]]
}

// droppedThrough returns the slices shed through the given number of
// completed steps.
//
//smoothvet:noalloc
func (c *Cohort) droppedThrough(steps int32) int {
	if steps <= 0 {
		return 0
	}
	return int(c.drops[steps-1])
}

// planRecorder captures a Sender's writes, tracking step boundaries so the
// batched flush of each Tick lands in its own wire span.
type planRecorder struct {
	wire []byte
	off  []int32
}

func (r *planRecorder) Write(p []byte) (int, error) {
	r.wire = append(r.wire, p...)
	return len(p), nil
}

func (r *planRecorder) endStep() { r.off = append(r.off, int32(len(r.wire))) }

// buildCohort replays one full session through a netstream.Sender into a
// recorder, producing the shared plan. It runs once per cohort key (under
// the table's once), typically at the first Handle that negotiates the
// key's parameters.
func (e *Engine) buildCohort(key cohortKey) (*Cohort, error) {
	rec := &planRecorder{off: []int32{0}}
	snd, err := netstream.NewSender(rec, netstream.SenderConfig{
		ServerBuffer: key.buffer,
		Rate:         e.cfg.Rate,
		Delay:        key.delay,
		Policy:       e.cfg.Policy,
	})
	if err != nil {
		return nil, err
	}
	c := &Cohort{key: key}
	horizon := len(e.stepOffers) - 1
	dropped := 0
	for step := 0; ; step++ {
		var offers []netstream.Offered
		if step <= horizon {
			offers = e.stepOffers[step]
		}
		stats, err := snd.Tick(offers)
		if err != nil {
			return nil, err
		}
		dropped += len(stats.Dropped)
		done := step+1 > horizon && snd.Backlog() == 0
		if done {
			// The End marker leaves in the same tick as the final flush.
			if err := netstream.WriteEnd(rec); err != nil {
				return nil, err
			}
		}
		rec.endStep()
		c.drops = append(c.drops, int32(dropped))
		if done {
			break
		}
	}
	c.wire, c.off = rec.wire, rec.off
	return c, nil
}

// cohortCache memoizes cohorts per key. The double-checked entry/once
// layout keeps the map lock out of plan computation: concurrent Handles of
// the same key block on one build, Handles of other keys proceed.
//
// The table needs no cap: netstream.NegotiateSession only ever yields
// buffer = rate·delay with 1 ≤ delay ≤ MaxDelay, so the wire can name at
// most MaxDelay keys and the table holds at most MaxDelay encoded copies of
// the content (TestCohortKeysBoundedByMaxDelay).
type cohortCache struct {
	mu sync.Mutex
	m  map[cohortKey]*cohortEntry
}

type cohortEntry struct {
	once sync.Once
	c    *Cohort
	err  error
}

// cohortFor returns the shared cohort for the negotiated parameters,
// building it on first use. A key whose plan cannot be built keeps its
// error and is not retried.
func (e *Engine) cohortFor(delay, buffer int) (*Cohort, error) {
	key := cohortKey{delay: delay, buffer: buffer}
	e.cohorts.mu.Lock()
	ent, ok := e.cohorts.m[key]
	if !ok {
		ent = &cohortEntry{}
		e.cohorts.m[key] = ent
	}
	e.cohorts.mu.Unlock()
	ent.once.Do(func() { ent.c, ent.err = e.buildCohort(key) })
	return ent.c, ent.err
}
