// Package linksim models communication links with propagation-delay jitter
// and the jitter-control regulator that restores the paper's 0-jitter
// abstraction.
//
// The paper (Section 2.2) assumes a lossless FIFO link whose delay is a
// constant P, justified by jitter-control algorithms: if the raw network
// delays each byte by P plus a bounded jitter in [0, J], a regulator at the
// receiver that releases every byte exactly at sendTime + P + J presents
// the client with a perfectly constant-delay link, at the cost of J extra
// delay and up to R·J extra buffer. Simulate demonstrates exactly this: a
// run over a jittery link with a regulator is byte-for-byte identical to a
// run over a constant-delay link of P+J. SimulateUnregulated shows what the
// jitter does to the naive client without the regulator.
package linksim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/stream"
)

// JitterLink delivers byte batches with delay P + jitter, where jitter is
// drawn per step from a deterministic source, uniformly in [0, Jitter].
// The link does not reorder within a step, but jitter may reorder batches
// sent in different steps; the regulator (or the client) must cope.
type JitterLink struct {
	// Delay is the base propagation delay P.
	Delay int
	// Jitter is the maximum extra delay J.
	Jitter int

	rng      *rand.Rand
	inFlight map[int][]Timestamped // arrival step -> batches
	pending  int
}

// Timestamped is a byte batch annotated with its send step, as a real
// transport would stamp packets for jitter control.
type Timestamped struct {
	core.Batch
	SentAt int
}

// NewJitterLink returns a link with the given base delay, jitter bound and
// deterministic seed.
func NewJitterLink(delay, jitter int, seed int64) (*JitterLink, error) {
	if delay < 0 || jitter < 0 {
		return nil, fmt.Errorf("linksim: negative delay %d or jitter %d", delay, jitter)
	}
	return &JitterLink{
		Delay:    delay,
		Jitter:   jitter,
		rng:      rand.New(rand.NewSource(seed)),
		inFlight: make(map[int][]Timestamped),
	}, nil
}

// Push submits the batches sent at step t. All batches of one step share
// one jitter draw (they ride the same packet train).
func (l *JitterLink) Push(t int, batches []core.Batch) {
	if len(batches) == 0 {
		return
	}
	j := 0
	if l.Jitter > 0 {
		j = l.rng.Intn(l.Jitter + 1)
	}
	at := t + l.Delay + j
	for _, b := range batches {
		l.inFlight[at] = append(l.inFlight[at], Timestamped{Batch: b, SentAt: t})
		l.pending += b.Bytes
	}
}

// Pop removes and returns the batches arriving at step t, oldest send step
// first.
func (l *JitterLink) Pop(t int) []Timestamped {
	out := l.inFlight[t]
	delete(l.inFlight, t)
	for _, b := range out {
		l.pending -= b.Bytes
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SentAt < out[j].SentAt })
	return out
}

// Empty reports whether no bytes are in flight.
func (l *JitterLink) Empty() bool { return l.pending == 0 }

// Regulator re-times deliveries to a constant total delay: a batch sent at
// step s is released exactly at step s + Total, where Total >= the link's
// worst-case delay. It is the jitter-control buffer of Section 2.2.
type Regulator struct {
	// Total is the constant delay the regulator enforces.
	Total int
	held  map[int][]core.Batch // release step -> batches
	bytes int
	max   int
}

// NewRegulator returns a regulator enforcing the given total delay.
func NewRegulator(total int) *Regulator {
	return &Regulator{Total: total, held: make(map[int][]core.Batch)}
}

// Offer hands the regulator batches that just arrived from the link.
// Batches whose release step has already passed are released immediately
// at the next Release call (they indicate Total was set below the link's
// actual worst case).
func (r *Regulator) Offer(now int, batches []Timestamped) {
	for _, b := range batches {
		release := b.SentAt + r.Total
		if release < now {
			release = now
		}
		r.held[release] = append(r.held[release], b.Batch)
		r.bytes += b.Bytes
		if r.bytes > r.max {
			r.max = r.bytes
		}
	}
}

// Release returns the batches due at step t, in send order.
func (r *Regulator) Release(t int) []core.Batch {
	out := r.held[t]
	delete(r.held, t)
	for _, b := range out {
		r.bytes -= b.Bytes
	}
	return out
}

// MaxOccupancy returns the peak number of bytes the regulator buffered.
func (r *Regulator) MaxOccupancy() int { return r.max }

// Empty reports whether the regulator holds no bytes.
func (r *Regulator) Empty() bool { return r.bytes == 0 }

// Simulate runs the generic algorithm over a jittery link with a regulator
// enforcing total delay P+J. The returned schedule has LinkDelay = P+J and
// is a legal constant-delay schedule: jitter control makes the jittery link
// indistinguishable from a slower constant link (the justification for the
// paper's 0-jitter model). The regulator's peak occupancy is returned too.
// The run uses r's arena, so the schedule is r's until its next run, as
// core.Runner.Run's is; pass core.NewRunner() for one the caller owns.
func Simulate(r *core.Runner, st *stream.Stream, cfg core.Config, jitter int, seed int64) (*sched.Schedule, int, error) {
	if jitter < 0 {
		return nil, 0, fmt.Errorf("linksim: negative jitter %d", jitter)
	}
	link, err := NewJitterLink(cfg.LinkDelay, jitter, seed)
	if err != nil {
		return nil, 0, err
	}
	reg := NewRegulator(cfg.LinkDelay + jitter)

	// Mirror core.Simulate, with link+regulator in the middle and the
	// client configured for the regulated total delay.
	effective := cfg
	effective.LinkDelay = cfg.LinkDelay + jitter
	rec, server, client, err := r.Components(st, effective)
	if err != nil {
		return nil, 0, err
	}
	params := rec.Schedule().Params
	bound := st.Horizon() + params.LinkDelay + params.Delay + st.TotalBytes()/params.Rate + 16
	for t := 0; t <= st.Horizon() || rec.Resolved() < st.Len() || !server.Empty() || !link.Empty() || !reg.Empty(); t++ {
		res := server.Step(t, st.RunsAt(t))
		link.Push(t, res.Sent)
		reg.Offer(t, link.Pop(t))
		rec.Record(t, server, res, client.Step(t, reg.Release(t)))
		if t > bound {
			return nil, 0, fmt.Errorf("linksim: simulation failed to terminate by step %d", t)
		}
	}
	return rec.Schedule(), reg.MaxOccupancy(), nil
}

// UnregulatedResult summarizes a run without jitter control.
type UnregulatedResult struct {
	Played, DroppedServer, DroppedLate int
}

// SimulateUnregulated runs the generic algorithm over a jittery link with
// NO jitter control: the client still expects every byte P steps after it
// was sent, so positive jitter makes bytes miss their deadlines. It returns
// the outcome counts — the damage jitter does without a regulator. The run
// uses r's arena.
func SimulateUnregulated(r *core.Runner, st *stream.Stream, cfg core.Config, jitter int, seed int64) (UnregulatedResult, error) {
	if jitter < 0 {
		return UnregulatedResult{}, fmt.Errorf("linksim: negative jitter %d", jitter)
	}
	link, err := NewJitterLink(cfg.LinkDelay, jitter, seed)
	if err != nil {
		return UnregulatedResult{}, err
	}
	rec, server, client, err := r.Components(st, cfg)
	if err != nil {
		return UnregulatedResult{}, err
	}
	var out UnregulatedResult
	params := rec.Schedule().Params
	bound := st.Horizon() + params.LinkDelay + jitter + params.Delay + st.TotalBytes()/params.Rate + 16
	for t := 0; t <= st.Horizon() || rec.Resolved() < st.Len() || !server.Empty() || !link.Empty(); t++ {
		res := server.Step(t, st.RunsAt(t))
		for _, d := range res.Dropped {
			out.DroppedServer += d.Count
		}
		link.Push(t, res.Sent)
		arrivals := link.Pop(t)
		batches := make([]core.Batch, len(arrivals))
		for i, a := range arrivals {
			batches[i] = a.Batch
		}
		cres := client.Step(t, batches)
		rec.Record(t, server, res, cres)
		for _, s := range cres.Played {
			out.Played += s.End - s.First
		}
		if t > bound {
			return out, fmt.Errorf("linksim: simulation failed to terminate by step %d", t)
		}
	}
	out.DroppedLate = st.Len() - out.Played - out.DroppedServer
	return out, nil
}
