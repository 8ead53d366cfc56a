// Package core implements the paper's primary contribution: the generic
// real-time lossy smoothing algorithm of Section 3 and the B = R·D
// provisioning law around it.
//
// The system (Fig. 1 of the paper) is a source feeding a server buffer,
// drained FIFO at up to R bytes per step over a lossless constant-delay
// link into a client buffer, which plays each frame exactly P+D steps after
// it was generated:
//
//   - the server transmits whenever its buffer is non-empty, in FIFO order,
//     at the maximal possible rate (Eq. 2);
//   - on overflow it discards whole slices chosen by a pluggable drop.Policy
//     until occupancy is back within B (Eq. 3); a slice whose transmission
//     has begun is never preempted;
//   - the client sets a timer of D steps when the first slice arrives and
//     thereafter plays frame t at step t+P+D (Section 3.1.2).
//
// Theorem 3.5: with unit-size slices and B = R·D this schedule drops the
// minimum possible number of slices among all real-time schedules with the
// same buffer and rate; Theorem 3.9 bounds the degradation for variable
// slice sizes by (B−Lmax+1)/B.
//
// Server and Client are usable step-by-step (the online setting), and
// Simulate wires them together over a recorded stream, returning a complete
// sched.Schedule.
package core

import (
	"fmt"
	"math"

	"repro/internal/drop"
	"repro/internal/sched"
	"repro/internal/stream"
)

// DelayFor returns the smoothing delay mandated by the B = R·D law for a
// given buffer size and link rate, rounding up when R does not divide B
// (Lemma 3.2's bound is ceil(B/R)).
func DelayFor(buffer, rate int) int {
	if rate <= 0 {
		return 0
	}
	return (buffer + rate - 1) / rate
}

// BufferFor returns the buffer size mandated by the B = R·D law for a given
// rate and delay.
func BufferFor(rate, delay int) int { return rate * delay }

// RateFor returns the link rate mandated by the B = R·D law for a given
// buffer and delay, rounding up.
func RateFor(buffer, delay int) int {
	if delay <= 0 {
		return buffer
	}
	return (buffer + delay - 1) / delay
}

// Config parameterizes a smoothing run.
type Config struct {
	// ServerBuffer is B_s in bytes. Required.
	ServerBuffer int
	// ClientBuffer is B_c in bytes. If zero it defaults to ServerBuffer,
	// the symmetric allocation the paper shows is exactly right when
	// B = R·D.
	ClientBuffer int
	// Rate is R, the link rate in bytes per step. Required.
	Rate int
	// Delay is D, the smoothing delay. If zero or negative, it defaults
	// to DelayFor(ServerBuffer, Rate) — the optimal choice by the B=R·D
	// law. (A degenerate zero smoothing delay cannot be requested; it
	// would make every slice not sent in its arrival step late.)
	Delay int
	// LinkDelay is P, the constant propagation delay of the link.
	LinkDelay int
	// Policy builds the server's drop policy. Defaults to drop.TailDrop.
	Policy drop.Factory
	// ServerDropsLate makes the server proactively discard slices whose
	// playback deadline can no longer be met instead of transmitting them
	// uselessly. The paper's generic algorithm does not do this (it never
	// needs to when D >= B/R); enabling it is an ablation for
	// under-provisioned delays (Section 3.3, first observation).
	ServerDropsLate bool
}

// withDefaults resolves defaulted fields and validates the configuration
// for a run over st.
func (c Config) withDefaults(st *stream.Stream) (Config, error) {
	if c.ServerBuffer <= 0 {
		return c, fmt.Errorf("core: server buffer must be positive, got %d", c.ServerBuffer)
	}
	if c.Rate <= 0 {
		return c, fmt.Errorf("core: rate must be positive, got %d", c.Rate)
	}
	if c.Delay <= 0 {
		c.Delay = DelayFor(c.ServerBuffer, c.Rate)
	}
	if c.ClientBuffer == 0 {
		// Lemma 3.4: the client holds at most the bytes the link delivers
		// in a window of D steps, i.e. R·D. When R divides B this equals
		// B (the paper's symmetric allocation); with the rounded-up delay
		// it can exceed B slightly.
		c.ClientBuffer = c.ServerBuffer
		if law := c.Rate * c.Delay; law > c.ClientBuffer {
			c.ClientBuffer = law
		}
	}
	if c.ClientBuffer < 0 {
		return c, fmt.Errorf("core: client buffer must be positive, got %d", c.ClientBuffer)
	}
	if c.LinkDelay < 0 {
		return c, fmt.Errorf("core: link delay must be non-negative, got %d", c.LinkDelay)
	}
	if c.Policy == nil {
		c.Policy = drop.TailDrop
	}
	// The Recorder stores a step in 32 bits.
	if bound := c.stepBound(st); bound > math.MaxInt32 {
		return c, fmt.Errorf("core: a run may take %d steps, more than a step can hold (%d)", bound, math.MaxInt32)
	}
	return c, nil
}

// stepBound is the last step a run over st can reach: the loop provably
// ends by then (the server sends R bytes per non-empty step).
func (c Config) stepBound(st *stream.Stream) int {
	return st.Horizon() + c.LinkDelay + c.Delay + totalSteps(st, c.Rate) + 8
}

// Batch is a run of consecutive bytes entering (or leaving) the link within
// a single step: Bytes bytes of consecutive slices of one run, all of size
// Size, starting Offset bytes into slice SliceID (the bytes of SliceID
// before Offset left in earlier steps).
type Batch struct {
	SliceID int
	Bytes   int
	Offset  int
	Size    int
}

// Started returns the IDs [first, end) whose first byte the batch carries:
// the slices that commence transmission with it.
// A batch that starts mid-slice (Offset > 0) continues SliceID instead.
func (b Batch) Started() (first, end int) {
	return b.SliceID + min(b.Offset, 1), b.SliceID + (b.Offset+b.Bytes+b.Size-1)/b.Size
}

// Finished returns the IDs [first, end) whose last byte the batch carries.
func (b Batch) Finished() (first, end int) {
	return b.SliceID, b.SliceID + (b.Offset+b.Bytes)/b.Size
}

// resetSchedule readies out for a run of st under the resolved config: one
// span of unresolved outcomes, Params filled, the per-step traces emptied,
// every backing array reused.
func (c Config) resetSchedule(out *sched.Schedule, st *stream.Stream, algorithm string) {
	out.Stream, out.Algorithm = st, algorithm
	out.Params = sched.Params{ServerBuffer: c.ServerBuffer, ClientBuffer: c.ClientBuffer,
		Rate: c.Rate, Delay: c.Delay, LinkDelay: c.LinkDelay}
	out.Outcomes = out.Outcomes[:0]
	if st.Len() > 0 {
		out.Outcomes = append(out.Outcomes, sched.Outcome{First: 0, End: st.Len(),
			SendStart: sched.None, SendEnd: sched.None, DropTime: sched.None, PlayTime: sched.None})
	}
	out.SentPerStep, out.ServerOcc, out.ClientOcc = out.SentPerStep[:0], out.ServerOcc[:0], out.ClientOcc[:0]
}

// serverOptions returns the server behaviour the resolved config asks for.
func (c Config) serverOptions() ServerOptions {
	return ServerOptions{DropLate: c.ServerDropsLate, Deadline: c.Delay}
}

// Simulate runs the generic algorithm for the whole stream and returns the
// resulting schedule. The simulation is deterministic given the config (and
// the policy's seed, for randomized policies). The returned schedule always
// passes sched.Validate; tests enforce this.
//
// Simulate uses a fresh arena per call, so the returned schedule owns its
// memory. Sweeps that run many simulations and only read each schedule
// transiently should reuse a Runner instead.
func Simulate(st *stream.Stream, cfg Config) (*sched.Schedule, error) {
	return NewRunner().run(st, cfg)
}

// totalSteps bounds how many steps draining the whole stream can take.
func totalSteps(st *stream.Stream, rate int) int {
	return st.TotalBytes()/rate + 1
}

// pipe models the lossless FIFO link: batches pushed at step t emerge at
// step t+P. It is a fixed-size ring over the propagation delay. Slot
// backing arrays are retained across pops and across reset, so a steady
// simulation pushes and pops without allocating.
type pipe struct {
	ring     [][]Batch
	head     int
	inFlight int
}

// reset prepares the pipe for a run with the given propagation delay,
// reusing slot capacity from earlier runs.
//
//smoothvet:noalloc
func (p *pipe) reset(delay int) {
	n := delay + 1
	if cap(p.ring) < n {
		p.ring = make([][]Batch, n)
	}
	p.ring = p.ring[:n]
	for i := range p.ring {
		p.ring[i] = p.ring[i][:0]
	}
	p.head = 0
	p.inFlight = 0
}

// copyFrom makes p a copy of src in p's own backing arrays.
func (p *pipe) copyFrom(src *pipe) {
	p.reset(len(src.ring) - 1)
	for i, slot := range src.ring {
		p.ring[i] = append(p.ring[i], slot...)
	}
	p.head, p.inFlight = src.head, src.inFlight
}

// push inserts the batches sent this step; they will pop after the
// propagation delay.
//
//smoothvet:noalloc
func (p *pipe) push(batches []Batch) {
	tail := (p.head + len(p.ring) - 1) % len(p.ring)
	p.ring[tail] = append(p.ring[tail], batches...)
	for _, b := range batches {
		p.inFlight += b.Bytes
	}
}

// pop removes and returns the batches arriving this step. The returned
// slice aliases the slot's backing array, which is reused for batches
// pushed from this step on; with a positive delay those surface pops
// later, and with delay 0 the caller consumes the batches before the next
// step's push — either way the contents are stable while the caller needs
// them.
//
//smoothvet:aliased
//smoothvet:noalloc
func (p *pipe) pop() []Batch {
	out := p.ring[p.head]
	p.ring[p.head] = out[:0]
	p.head = (p.head + 1) % len(p.ring)
	for _, b := range out {
		p.inFlight -= b.Bytes
	}
	return out
}

func (p *pipe) empty() bool { return p.inFlight == 0 }
