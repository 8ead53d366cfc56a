// Package reactor is the shard reactor under internal/loadgen and
// internal/lb, and the hand-off queue and socket adoption under all three
// engines: one epoll Poller, one Queue from the goroutines that set a
// session up to the one that runs it, one fd-indexed session Table, and
// one wake Loop. An engine supplies only what differs — what to do with a
// ready fd, when a session has been quiet too long, how a session ends —
// as the Loop's Handler.
//
// One owner per socket: an engine handshakes on a net.Conn, then Adopt
// moves the socket out of the Go runtime's netpoller and hands back a bare
// fd, so each socket is in at most one epoll set and every wake is one the
// engine asked for. From then on the engine alone reads, writes and
// closes it, through this package's Read, Write and Close and their one
// errno rule, and what crosses a Queue carries the fd, not the conn
// (serve's conns without a socket — pipes in tests, benchmark sinks — are
// the exception).
//
// The package is the only one with OS-specific files: poller_linux.go
// holds every epoll, socket read, write and close, and fd-duplication call
// the engines make; elsewhere NewPoller and Adopt return an error, so
// engines fail fast and everything above this package compiles unchanged.
package reactor

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

const (
	// waitMs bounds one reactor nap; it also bounds how long a queued
	// session waits for admission and how stale an idle sweep can be. 10ms
	// sits well under the smallest practical step duration.
	waitMs = 10
	// settle is how long a loaded loop lets ready fds gather before it
	// serves them (see Run). 200µs is far inside a session's D·step of
	// playout slack, and long enough that one wake serves the burst a
	// serving tick writes instead of a few messages of it.
	settle = 200 * time.Microsecond
	// maxEvents is the per-wait event batch; more ready fds than this
	// simply surface on the next wait (level-triggered).
	maxEvents = 1024
	// sweepChunk bounds the idle sweep per wake so a 100k-session shard
	// does not walk its whole table every 10ms.
	sweepChunk = 256
)

// Event bits, with epoll(7)'s values (part of the Linux ABI). There is no
// one-shot or edge-triggered bit: Run may drop one wait's events and count
// on the next wait to report them again.
const (
	In    uint32 = 0x1
	Out   uint32 = 0x4
	Err   uint32 = 0x8
	Hup   uint32 = 0x10
	RdHup uint32 = 0x2000
)

// Event is one ready fd and the bits it is ready for.
type Event struct {
	Fd     int32
	Events uint32
}

// Handler is the engine-specific part of a wake. Every method runs on the
// loop's goroutine with the wake's stamp.
type Handler[S Session] interface {
	// Admit takes over a session popped off the Queue: it arms the
	// session's fds on the Poller and adds it to the Table, or retires it.
	Admit(s S, now int64)
	// Ready serves one ready fd of a session in the Table.
	Ready(s S, fd int, events uint32, now int64)
	// Expired returns the error to retire s with when it has been quiet
	// too long, else nil.
	Expired(s S, now int64) error
	// Retire ends s, which may or may not be in the Table, and removes it.
	Retire(s S, err error, now int64)
}

// Loop is one shard's reactor: the resources its sessions share and the
// wake that serves them. The engine's shard struct embeds it and fills the
// exported fields before Run.
//
//smoothvet:confined owned by the goroutine that calls Run; only Queue is shared
type Loop[S Session] struct {
	// Poller may be nil: Wake never touches it before shutdown, so tests and
	// benchmarks drive a loop with chosen events and no epoll set.
	Poller *Poller
	//smoothvet:shared mutex-guarded: any goroutine may Push
	Queue Queue[S]
	Table Table[S]

	Handler Handler[S]
	// Now reads the engine's monotonic clock; Run stamps each wake with it.
	Now func() int64
	// Closing, once set, makes the next wake the last; ErrClosed is what the
	// sessions still live or queued then are retired with.
	Closing   *atomic.Bool
	ErrClosed error
	// Met is the shard's metric slots and Active the gauge every wake sets
	// to the table size before publishing; every wake counts itself in
	// Wakes and its ready fds in WakeEvents.
	//smoothvet:confined the slots belong to the loop's goroutine
	Met        *obs.ShardMetrics
	Active     obs.GaugeID
	Wakes      obs.CounterID
	WakeEvents obs.HistID
}

// Run waits for ready fds and serves wakes until Closing is set.
//
// A wait that returns ready fds sooner than settle after it began finds
// the loop loaded: more bytes are on their way, so the loop naps out the
// rest of settle on its own thread and waits again, and one wake serves
// all that is ready then. Every fd is watched level-triggered, so the
// second wait reports whatever the first did and nothing is lost. A wait
// that blocked for settle or longer finds the loop idle, and its events
// are served at once: an isolated message pays nothing.
func (l *Loop[S]) Run() {
	for {
		start := l.Now()
		events := l.Poller.Wait()
		// The single stamp per wake, taken immediately after the last
		// epoll_wait returns, is what every session served in the wake
		// measures against: a reported lag or stall can exceed truth by at
		// most one wake plus settle, and never includes a scheduler delay
		// per message.
		now := l.Now()
		if d := settleNap(start, now, len(events)); d > 0 {
			nap(d)
			events = l.Poller.Wait()
			now = l.Now()
		}
		if l.Wake(events, now) {
			return
		}
	}
}

// settleNap is Run's rule: how long to nap after a wait that began at
// start and returned ready fds at end (nanoseconds on the engine's
// clock). An empty wait, or one that blocked for settle or longer, naps
// not at all; a loaded one naps the rest of settle, never more.
func settleNap(start, end int64, ready int) time.Duration {
	if ready == 0 {
		return 0
	}
	return settle - time.Duration(min(max(end-start, 0), int64(settle)))
}

// Wake is the body of one wake at stamp now: admit queued sessions,
// dispatch each ready fd, sweep one chunk of the table for expired
// sessions, publish the metric state, and — when the engine is closing —
// retire everything and release the poller. It reports whether the loop is
// done.
func (l *Loop[S]) Wake(events []Event, now int64) (done bool) {
	l.Met.Inc(l.Wakes)
	l.Met.Observe(l.WakeEvents, int64(len(events)))
	for _, s := range l.Queue.Drain() {
		l.Handler.Admit(s, now)
	}
	for _, ev := range events {
		// A session retired earlier in this batch has left the table.
		if s, ok := l.Table.Lookup(int(ev.Fd)); ok {
			l.Handler.Ready(s, int(ev.Fd), ev.Events, now)
		}
	}
	t := &l.Table
	for k := min(sweepChunk, len(t.live)); k > 0 && len(t.live) > 0; k-- {
		if t.cur >= len(t.live) {
			t.cur = 0
		}
		s := t.live[t.cur]
		if err := l.Handler.Expired(s, now); err != nil {
			// The swap-remove moves another session into cur; it is
			// examined next, so the sweep skips nobody.
			l.Handler.Retire(s, err, now)
			continue
		}
		t.cur++
	}
	closing := l.Closing.Load()
	if closing {
		for n := l.Table.Len(); n > 0; n = l.Table.Len() {
			l.Handler.Retire(l.Table.At(n-1), l.ErrClosed, now)
		}
		for _, s := range l.Queue.Close() {
			l.Handler.Retire(s, l.ErrClosed, now)
		}
		l.Poller.Close()
	}
	// One gauge store plus an O(metrics) snapshot copy per wake, never per
	// message.
	l.Met.Set(l.Active, uint64(l.Table.Len()))
	l.Met.Publish()
	return closing
}

// Overdue reports whether more than limit has passed between since and
// now, both nanoseconds on the engine's clock; a limit of zero or less
// never expires.
func Overdue(limit time.Duration, since, now int64) bool {
	return limit > 0 && now-since > int64(limit)
}
