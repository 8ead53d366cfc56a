// Package lb is the fleet front tier: one smoothlb process accepts
// client sessions, places each on one of N smoothd backends, and relays
// the backend's pre-encoded wire stream back to the client. The paper's
// per-server story tops out at one machine's sessions; "millions of
// users" is this tier times N backends, and the tier itself must add
// near-zero per-step cost to keep the end-to-end smoothing guarantees
// intact.
//
// # Architecture
//
// The engine reuses the shard-reactor shape of internal/serve and
// internal/loadgen, split into a control plane and a data plane:
//
//   - Front door: Handle reads the client's Hello (the only blocking
//     read on the client side), applies admission control — an optional
//     admission.Gate precomputed from per-step demand samples, plus a
//     hard session cap — and starts the session's placement on a
//     goroutine of its own. Those two rules are the whole of admission.
//   - Placer: each placement waits for one of PlaceWorkers slots (at
//     most that many dials and handshakes run at once), then scores
//     every healthy, non-draining backend by live buffer headroom
//     minus a step-lag penalty (both refreshed from the backends'
//     /statusz JSON when metrics addresses are configured, with the
//     LB-local active count as the always-fresh floor), dials the best
//     backend, forwards the Hello, and relays the Accept back to the
//     client. Dial or handshake failure marks the backend unhealthy and
//     re-places the session elsewhere, up to three times (replaceLimit);
//     a backend entering drain (DrainBackend, or a scraped
//     serve_draining=1) is skipped by scoring and sessions already
//     picked for it are re-placed before the dial — graceful drain is a
//     placement event, never a client-visible failure.
//   - Shard reactors: after the handshake the placer adopts both TCP
//     sockets (reactor.Adopt) and the session becomes pure byte relay.
//     Each shard is one reactor.Loop — poller, hand-off queue from the
//     placer, fd table, idle sweep and wake are internal/reactor's,
//     shared with internal/loadgen — and the shard, as its handler,
//     copies backend socket → shard buffer → client socket (one read
//     of at most 64 KiB and one write per wake, zero allocation). What
//     the client refuses parks in the session's pending bytes, the
//     session parks on EPOLLOUT, and the stall duration streams into a
//     histogram; stalls beyond Config.StallTimeout retire the session.
//     The tier requires Linux: New returns reactor.NewPoller's error
//     elsewhere.
//
// Every wake stamps one engine-monotonic clock reading shared by all
// sessions drained in it (as a serve shard stamps one per tick), so
// flight-recorder ticks and stall measurements never read the wall clock
// on the hot path. The relay path carries //smoothvet:noalloc and the shard structs
// //smoothvet:confined; BenchmarkLBRelayStep pins the per-step relay at
// exactly 0 B/op 0 allocs/op.
package lb

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/netstream"
	"repro/internal/obs"
)

const (
	// backendSlots is the per-backend session capacity headroom is scored
	// against.
	backendSlots = 10000
	// dialTimeout bounds one backend TCP dial.
	dialTimeout = 5 * time.Second
	// scrapeInterval is the backend /statusz poll period when MetricsAddrs
	// are set.
	scrapeInterval = time.Second
)

var (
	errEngineClosed  = errors.New("lb: engine is closed")
	errAdmission     = errors.New("lb: admission refused")
	errSessionCap    = errors.New("lb: session cap reached")
	errNoBackend     = errors.New("lb: no healthy backend")
	errClientGone    = errors.New("lb: client hung up mid-relay")
	errIdleTimeout   = errors.New("lb: backend idle timeout")
	errStallTimeout  = errors.New("lb: client write stalled past the stall timeout")
	errBackendDrain  = errors.New("lb: backend started draining")
	errRelayShutdown = errors.New("lb: relay aborted by engine close")
)

// Config parameterizes an Engine.
type Config struct {
	// Backends are the smoothd addresses sessions are placed on.
	// Required.
	Backends []string
	// MetricsAddrs optionally lists each backend's diag address
	// (host:port of its -debug listener), parallel to Backends; empty
	// entries (or an empty slice) disable scraping for that backend and
	// scoring falls back to the LB-local active count alone.
	MetricsAddrs []string
	// Shards is the number of relay reactor shards (default GOMAXPROCS).
	Shards int
	// MaxSessions caps concurrently admitted sessions (0 = unlimited).
	MaxSessions int
	// PlaceWorkers bounds concurrent placement (dial+handshake) (default 16).
	PlaceWorkers int
	// HandshakeTimeout bounds the Hello/Accept exchange on either side
	// (default 10s).
	HandshakeTimeout time.Duration
	// IdleTimeout retires a session whose backend has sent nothing for
	// this long (default 30s; negative disables).
	IdleTimeout time.Duration
	// StallTimeout retires a session whose client write has been stalled
	// for this long (default 10s; negative disables).
	StallTimeout time.Duration
	// ProbeInterval is the unhealthy-backend re-probe period (default 1s).
	ProbeInterval time.Duration
	// Gate, if non-nil, is the front-door admission gate; sessions it
	// refuses are rejected before placement.
	Gate *admission.Gate
	// OnSessionDone, if non-nil, is called once per admitted session as
	// it finishes, possibly concurrently.
	OnSessionDone func(SessionStats)
	// Instrument, if non-nil, registers extra metrics on the tier's
	// obs.Builder before it freezes.
	Instrument func(b *obs.Builder)
}

// SessionStats summarizes one admitted session's life through the tier.
type SessionStats struct {
	// ID is the tier-wide session id (flight-recorder sess field).
	ID uint64
	// Backend is the index the session last relayed through (-1 if it
	// never placed).
	Backend int
	// Err is nil for a session that relayed the full stream.
	Err error
	// Bytes is the relay volume delivered to the client.
	Bytes int64
	// Replacements counts how many times placement moved the session.
	Replacements int
	// Elapsed is the wall-clock time from admission to retirement.
	Elapsed time.Duration
}

// Engine is the fleet front tier: accept → admit → place → relay.
type Engine struct {
	cfg  Config
	base time.Time // engine-wide monotonic base for all stamps

	backends []*backend
	shards   []*shard
	met      *lbMetrics
	// recs[0] is the front-door/placer ring (admit, place, re-place,
	// drain events); recs[1+i] is shard i's relay ring.
	recs []*obs.FlightRecorder

	active atomic.Int64
	// idle holds one wake-up for Drain, sent whenever active falls to 0.
	idle chan struct{}
	seq  atomic.Uint64

	httpc *http.Client
	// placeSlots holds one token per running placement, PlaceWorkers deep.
	placeSlots chan struct{}

	// mu orders Handle's start of a placement against Close setting
	// closing: a placement either starts, counted on placeWG, before
	// Close waits on it, or sees closing and is never started.
	mu      sync.Mutex
	closing atomic.Bool
	quit    chan struct{}
	placeWG sync.WaitGroup
	loopWG  sync.WaitGroup
	maintWG sync.WaitGroup
}

// New validates the config, connects the metric registry and starts the
// shard reactors and the scrape/probe maintenance loop.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("lb: no backends")
	}
	if len(cfg.MetricsAddrs) != 0 && len(cfg.MetricsAddrs) != len(cfg.Backends) {
		return nil, fmt.Errorf("lb: %d metrics addresses for %d backends", len(cfg.MetricsAddrs), len(cfg.Backends))
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.PlaceWorkers <= 0 {
		cfg.PlaceWorkers = 16
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 10 * time.Second
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 30 * time.Second
	}
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = 10 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	e := &Engine{
		cfg:        cfg,
		base:       time.Now(),
		idle:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
		httpc:      &http.Client{Timeout: scrapeInterval},
		placeSlots: make(chan struct{}, cfg.PlaceWorkers),
	}
	e.backends = make([]*backend, len(cfg.Backends))
	for i, addr := range cfg.Backends {
		b := &backend{idx: i, addr: addr}
		if i < len(cfg.MetricsAddrs) && cfg.MetricsAddrs[i] != "" {
			b.statusURL = "http://" + cfg.MetricsAddrs[i] + "/statusz"
		}
		e.backends[i] = b
	}
	e.met = newLBMetrics(e, cfg.Shards, cfg.Instrument)
	e.recs = make([]*obs.FlightRecorder, cfg.Shards+1)
	for i := range e.recs {
		e.recs[i] = obs.NewFlightRecorder(0)
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		sh, err := newShard(e, i)
		if err != nil {
			//smoothvet:transfer no shard goroutine has started yet
			for _, prev := range e.shards[:i] {
				prev.Poller.Close()
			}
			return nil, err
		}
		e.shards[i] = sh
	}
	for _, sh := range e.shards {
		e.loopWG.Add(1)
		//smoothvet:transfer ownership of the shard moves to its reactor goroutine
		go func() { defer e.loopWG.Done(); sh.Run() }()
	}
	e.maintWG.Add(1)
	go e.maintain()
	return e, nil
}

// monotonic returns nanoseconds since the engine's base on the monotonic
// clock; every shard stamp, flight tick and stall measurement lives on
// this axis.
func (e *Engine) monotonic() int64 { return int64(time.Since(e.base)) }

// Handle admits one client connection into the tier: it reads the Hello,
// applies the admission gate and the session cap, and starts the
// session's placement without waiting for its dial. The handshake read
// blocks (bounded by HandshakeTimeout), so callers run Handle on a
// per-connection goroutine, exactly like serve.Engine.Handle. A non-nil
// error means the connection was rejected and closed, or, for a session
// admitted while Close ran, failed with errEngineClosed.
func (e *Engine) Handle(conn net.Conn) error {
	if e.closing.Load() {
		return e.reject(conn, errEngineClosed)
	}
	_ = conn.SetReadDeadline(time.Now().Add(e.cfg.HandshakeTimeout))
	msg, err := netstream.ReadMsg(conn)
	if err != nil {
		return e.reject(conn, fmt.Errorf("lb: reading hello: %w", err))
	}
	if msg.Hello == nil {
		return e.reject(conn, fmt.Errorf("lb: expected hello, got %+v", msg))
	}
	// Reserve the slot, then test it: a check followed by a later Add lets
	// concurrent connections past the cap together.
	if n, limit := e.active.Add(1), e.cfg.MaxSessions; limit > 0 && n > int64(limit) {
		e.leave()
		return e.reject(conn, errSessionCap)
	}
	if g := e.cfg.Gate; g != nil && !g.TryAdmit() {
		e.leave()
		return e.reject(conn, errAdmission)
	}
	s := &session{
		id:         e.seq.Add(1),
		clientConn: conn,
		hello:      *msg.Hello,
		start:      time.Now(),
		admitted:   e.monotonic(),
		cfd:        -1,
		bfd:        -1,
		backendIdx: -1,
	}
	e.met.reg.GlobalInc(e.met.cAccepted)
	e.recs[0].Record(s.admitted, obs.EvAdmit, s.id, 0)
	e.mu.Lock()
	closed := e.closing.Load()
	if !closed {
		e.placeWG.Add(1)
		go e.place(s)
	}
	e.mu.Unlock()
	if closed {
		// Close ran while this goroutine was blocked in the hello read.
		e.failPlacement(s, errEngineClosed, e.monotonic())
		return errEngineClosed
	}
	return nil
}

// reject closes a refused connection and counts it.
func (e *Engine) reject(conn net.Conn, err error) error {
	_ = conn.Close()
	e.met.reg.GlobalInc(e.met.cRejected)
	return err
}

// sessionDone releases front-door accounting for one admitted session
// and fires the completion callback. Every admitted session passes here
// exactly once, whether it failed in placement or retired on a shard.
func (e *Engine) sessionDone(s *session, err error, now int64) {
	e.leave()
	if g := e.cfg.Gate; g != nil {
		g.Release()
	}
	if cb := e.cfg.OnSessionDone; cb != nil {
		cb(SessionStats{
			ID:           s.id,
			Backend:      s.backendIdx,
			Err:          err,
			Bytes:        s.bytes,
			Replacements: s.retries,
			Elapsed:      e.base.Add(time.Duration(now)).Sub(s.start),
		})
	}
}

// DrainBackend marks backend i as draining: scoring skips it, placements
// re-place sessions already picked for it, and sessions already
// relaying through it run to completion. The drain is a flight-recorder
// event; it cannot be undone short of restarting the tier.
func (e *Engine) DrainBackend(i int) error {
	if i < 0 || i >= len(e.backends) {
		return fmt.Errorf("lb: backend %d out of range", i)
	}
	b := e.backends[i]
	if !b.drainManual.Swap(true) {
		e.met.reg.GlobalInc(e.met.cDrains)
		e.recs[0].Record(e.monotonic(), obs.EvBackendDrain, uint64(i), 0)
	}
	return nil
}

// leave gives back one admitted session's place; the last one out wakes
// a waiting Drain.
func (e *Engine) leave() {
	if e.active.Add(-1) == 0 {
		select {
		case e.idle <- struct{}{}:
		default:
		}
	}
}

// Drain waits for every admitted session to finish, up to timeout,
// without aborting relays; it reports whether the tier emptied. Callers
// stop feeding Handle first.
func (e *Engine) Drain(timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for e.active.Load() != 0 {
		select {
		case <-e.idle: // stale or fresh: the loop checks again
		case <-deadline.C:
			return e.active.Load() == 0
		}
	}
	return true
}

// Close stops placement and the shard reactors, aborting any session
// still in flight. Safe to call more than once.
func (e *Engine) Close() {
	e.mu.Lock()
	again := e.closing.Swap(true)
	e.mu.Unlock()
	if again {
		e.loopWG.Wait()
		return
	}
	close(e.quit)
	e.placeWG.Wait()
	e.maintWG.Wait()
	e.loopWG.Wait()
}

// Active returns the number of admitted, unfinished sessions.
func (e *Engine) Active() int { return int(e.active.Load()) }

// SpliceFallbacks always returns 0: the relay copies every byte and never
// splices, so nothing falls back. It exists only because smoothbench
// checks it; both go together.
func (e *Engine) SpliceFallbacks() int64 { return 0 }

// Obs returns the tier's metric registry for diag endpoints and tests.
func (e *Engine) Obs() *obs.Registry { return e.met.reg }

// FlightRecorders returns the tier's flight rings: index 0 is the
// front-door/placer ring, index 1+i is relay shard i.
func (e *Engine) FlightRecorders() []*obs.FlightRecorder { return e.recs }
