// Package serve is the sharded multi-session serving engine: the
// production-shaped deployment of the paper's Fig. 1 system, and the only
// place in the repo that paces a smoothing buffer's output onto a
// connection. The engine runs N shard loops, each driven by a single model
// clock that steps every session registered on the shard. Sessions are
// assigned to shards by connection hash and owned by their shard goroutine,
// so they need no locks of their own.
//
// Per-session output is completely determined by the content, the drop
// policy and the negotiated (B, R, D): shard assignment only decides *which*
// goroutine advances a session's clock, so the byte stream a client sees is
// identical for any shard count (engine_test.go locks this down, mirroring
// the sweep engine's worker-count invariance).
//
// That purity is why every session is a cohort row (cohort.go): sessions
// that negotiate identical (delay, buffer) share one precomputed schedule
// and one pre-encoded byte stream — replayed once through a real
// netstream.Sender — their hot state is a cohort pointer and a step cursor
// held in shard-owned parallel arrays, and a shard tick is a contiguous
// walk that writes shared immutable buffers. The content is one clip (New)
// or several clips multiplexed as tagged substreams through one shared
// smoothing buffer (NewMux); the engine reduces either to a per-step offer
// table and serves both the same way.
package serve

import (
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/drop"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/reactor"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Config parameterizes an Engine.
type Config struct {
	// Rate is R in payload bytes per model step. Required.
	Rate int
	// Shards is the number of shard loops (default GOMAXPROCS).
	Shards int
	// MaxSessions caps concurrently registered sessions across all shards
	// (0 = unlimited); Handle rejects connections beyond it.
	MaxSessions int
	// StepDuration is the wall-clock length of one model step.
	// Defaults to 40ms (25 frames/second).
	StepDuration time.Duration
	// MaxDelay caps the smoothing delay granted to a client, in steps.
	// Defaults to 64.
	MaxDelay int
	// Policy selects the drop policy (default drop.Greedy).
	Policy drop.Factory
	// OnSessionDone, if non-nil, is called from the shard goroutine after
	// a session ends (err is nil for a clean drain to End).
	OnSessionDone func(s SessionStats, err error)
	// Instrument, if non-nil, registers extra metrics (runtime stats,
	// admission counters) on the engine's obs.Builder before it freezes.
	Instrument func(b *obs.Builder)
}

// SessionStats summarizes one finished session.
type SessionStats struct {
	// Remote is the peer address, when known.
	Remote string
	// Steps is the number of model steps the session ran.
	Steps int
	// Dropped is the number of slices shed by the smoothing buffer.
	Dropped int
	// Elapsed is the wall-clock session duration from registration.
	Elapsed time.Duration
}

// Engine serves one piece of content — a clip, or several clips
// multiplexed — to many concurrent sessions over shard loops.
type Engine struct {
	cfg Config
	// stepOffers[t] is the ready-made offer slice for model step t —
	// arrivals paired with their payloads — built once and read by every
	// cohort build; the last entry is the content's horizon.
	//
	//smoothvet:frozen
	stepOffers [][]netstream.Offered
	shards     []*shard
	seed       maphash.Seed
	cohorts    cohortCache

	// handshakeTimeout bounds Handle's Hello/Accept exchange; it is
	// defaultHandshakeTimeout everywhere but in tests that shorten it.
	handshakeTimeout time.Duration

	met     *engineMetrics
	recs    []*obs.FlightRecorder
	sessSeq atomic.Uint64 // flight-recorder session ids, assigned at Handle

	active  atomic.Int64
	served  atomic.Int64
	closing atomic.Bool
	sessWG  sync.WaitGroup // live sessions
	loopWG  sync.WaitGroup // shard loops
	stop    sync.Once
}

// New builds an engine for the clip and starts its shard loops.
func New(clip *trace.Clip, weights trace.WeightMap, cfg Config) (*Engine, error) {
	e, err := newEngine(clip, weights, cfg)
	if err != nil {
		return nil, err
	}
	e.start()
	return e, nil
}

// NewMux builds an engine whose every session carries all the clips as
// tagged substreams through one shared smoothing buffer of rate cfg.Rate —
// the statistical-multiplexing deployment (netstream.Muxer) — and starts its
// shard loops. A session's bytes equal netstream.ServeMux's for the same
// clips and negotiated parameters.
func NewMux(clips []*trace.Clip, weights trace.WeightMap, cfg Config) (*Engine, error) {
	offers, err := netstream.MuxOffers(clips, weights)
	if err != nil {
		return nil, err
	}
	e, err := newEngineOffers(offers, cfg)
	if err != nil {
		return nil, err
	}
	e.start()
	return e, nil
}

// start hands each shard to its loop goroutine.
func (e *Engine) start() {
	for _, sh := range e.shards {
		e.loopWG.Add(1)
		//smoothvet:transfer ownership of the shard moves to its loop goroutine
		go sh.run()
	}
}

// newEngine builds a single-clip engine without starting the shard clocks;
// tests and benchmarks drive the shards manually via shard.step. Frame k
// arrives at step k; payload bytes depend only on (slice ID, size).
func newEngine(clip *trace.Clip, weights trace.WeightMap, cfg Config) (*Engine, error) {
	st, err := trace.WholeFrameStream(clip, weights)
	if err != nil {
		return nil, err
	}
	offers := make([][]netstream.Offered, st.Horizon()+1)
	for t := range offers {
		offers[t] = netstream.OfferStream(st, t, func(sl stream.Slice) []byte {
			return netstream.SynthPayload(sl.ID, sl.Size)
		})
	}
	return newEngineOffers(offers, cfg)
}

// newEngineOffers builds an unstarted engine serving the given per-step
// offer table, which it shares read-only from here on.
func newEngineOffers(stepOffers [][]netstream.Offered, cfg Config) (*Engine, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("serve: rate %d", cfg.Rate)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.StepDuration <= 0 {
		cfg.StepDuration = 40 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 64
	}
	e := &Engine{cfg: cfg, stepOffers: stepOffers, seed: maphash.MakeSeed(), handshakeTimeout: defaultHandshakeTimeout}
	e.cohorts.m = make(map[cohortKey]*cohortEntry)
	e.met = newEngineMetrics(e, cfg.Shards, cfg.Instrument)
	e.recs = make([]*obs.FlightRecorder, cfg.Shards)
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.recs[i] = obs.NewFlightRecorder(0)
		e.shards[i] = &shard{eng: e, quit: make(chan struct{}), epoch: time.Now(), met: e.met.reg.Shard(i), rec: e.recs[i]}
	}
	return e, nil
}

// ActiveSessions returns the number of sessions currently registered.
func (e *Engine) ActiveSessions() int { return int(e.active.Load()) }

// ServedSessions returns the number of sessions finished since start.
func (e *Engine) ServedSessions() int { return int(e.served.Load()) }

// defaultHandshakeTimeout bounds the Hello/Accept exchange in Handle, like
// lb's HandshakeTimeout default.
const defaultHandshakeTimeout = 10 * time.Second

// Handle performs the netstream handshake on the caller's goroutine (the
// Hello read blocks, for at most the handshake timeout), registers the
// session on a shard chosen by connection hash, and returns; the shard
// clock drives the session to completion and closes the connection. A TCP
// connection's socket is adopted (reactor.Adopt): conn is closed on return
// and the shard owns the fd. The session is registered in the shard's
// struct-of-arrays cohort rows under the plan for its negotiated
// parameters. On rejection (engine draining, session limit, bad or
// timed-out handshake, a plan that cannot be built) the connection is
// closed and an error returned.
func (e *Engine) Handle(conn net.Conn) error {
	if e.closing.Load() {
		return e.reject(conn, errDraining)
	}
	// The cheap reject; the slot itself is reserved after the handshake, so a
	// client that connects and says nothing holds none.
	max := e.cfg.MaxSessions
	if max > 0 && e.active.Load() >= int64(max) {
		return e.rejectOverLimit(conn)
	}
	delay, buffer, err := e.handshake(conn)
	if err != nil {
		return e.reject(conn, err)
	}
	c, err := e.cohortFor(delay, buffer)
	if err != nil {
		return e.reject(conn, err)
	}
	e.met.reg.GlobalInc(e.met.cCohortHits)
	remote := conn.RemoteAddr().String()
	// Reserve the slot, then test it: a check followed by a later Add lets
	// every connection that was in its handshake meanwhile past the cap.
	if n := e.active.Add(1); max > 0 && n > int64(max) {
		e.active.Add(-1)
		return e.rejectOverLimit(conn)
	}
	row := cohortRow{cohort: c, conn: conn, remote: remote, start: time.Now(), id: e.sessSeq.Add(1)}
	if tc, ok := conn.(*net.TCPConn); ok {
		if row.fd, err = reactor.Adopt(tc); err != nil {
			e.active.Add(-1)
			return e.reject(conn, err)
		}
		row.conn = nil
	}
	e.sessWG.Add(1)
	if !e.shards[e.shardOf(remote)].queue.Push(row) {
		e.active.Add(-1)
		e.sessWG.Done()
		row.close()
		return e.reject(conn, errDraining)
	}
	return nil
}

// handshake reads the client's Hello and answers with the negotiated
// Accept. Handle runs it before the session counts against MaxSessions, so
// the whole exchange is under one deadline: a client that connects and says
// nothing is rejected when it expires instead of holding the caller's
// goroutine and the descriptor for ever. The deadline is cleared before
// returning; from then on the stalled-out rule bounds a slow client.
func (e *Engine) handshake(conn net.Conn) (delay, buffer int, err error) {
	if err := conn.SetDeadline(time.Now().Add(e.handshakeTimeout)); err != nil {
		return 0, 0, fmt.Errorf("serve: arming handshake deadline: %w", err)
	}
	msg, err := netstream.ReadMsg(conn)
	if err != nil {
		return 0, 0, fmt.Errorf("serve: reading hello: %w", err)
	}
	if msg.Hello == nil {
		return 0, 0, fmt.Errorf("serve: expected hello, got %+v", msg)
	}
	delay, buffer = netstream.NegotiateSession(*msg.Hello, e.cfg.Rate, e.cfg.MaxDelay)
	if err := netstream.WriteAccept(conn, netstream.Accept{
		Rate:         uint32(e.cfg.Rate),
		Delay:        uint32(delay),
		ServerBuffer: uint32(buffer),
		StepMicros:   uint32(e.cfg.StepDuration / time.Microsecond),
	}); err != nil {
		return 0, 0, fmt.Errorf("serve: writing accept: %w", err)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return 0, 0, fmt.Errorf("serve: clearing handshake deadline: %w", err)
	}
	return delay, buffer, nil
}

// reject refuses a connection before registration: it counts the refusal,
// closes the connection and returns err.
func (e *Engine) reject(conn net.Conn, err error) error {
	e.met.reg.GlobalInc(e.met.cRejected)
	_ = conn.Close()
	return err
}

// rejectOverLimit refuses a connection that found every session slot taken.
func (e *Engine) rejectOverLimit(conn net.Conn) error {
	return e.reject(conn, fmt.Errorf("serve: session limit %d reached", e.cfg.MaxSessions))
}

// shardOf picks the shard for a connection by hashing its remote address.
func (e *Engine) shardOf(remote string) int {
	var h maphash.Hash
	h.SetSeed(e.seed)
	_, _ = h.WriteString(remote) // never fails per hash.Hash contract
	return int(h.Sum64() % uint64(len(e.shards)))
}

// Drain stops admitting sessions and waits up to timeout for the in-flight
// ones to finish their streams. It reports whether everything completed.
func (e *Engine) Drain(timeout time.Duration) bool {
	e.closing.Store(true)
	done := make(chan struct{})
	go func() { e.sessWG.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Close stops the shard loops, aborting any session still in flight (its
// connection is closed mid-stream). Safe to call after Drain and more than
// once.
func (e *Engine) Close() {
	e.closing.Store(true)
	e.stop.Do(func() {
		for _, sh := range e.shards {
			close(sh.quit)
		}
	})
	e.loopWG.Wait()
}

var (
	// errDraining refuses a connection once Drain or Close has begun.
	errDraining = errors.New("serve: engine is draining")
	// errAborted reports a session cut off by Close before its stream drained.
	errAborted = errors.New("serve: engine closed mid-stream")
	// errStalledOut reports a session whose unsent bytes outlasted D steps:
	// its client has stopped reading for longer than its buffer covers.
	errStalledOut = errors.New("serve: client stalled out: bytes owed for more than D steps")
)

// ---------------------------------------------------------------------------
// Shards.
// ---------------------------------------------------------------------------

// cohortRow is the registration-time state of one session, as Handle hands
// it to a shard loop.
// Its hot fields (cohort pointer, cursor) move into the shard's parallel
// arrays on admit; the rest stays in the cold array, touched only at
// retirement.
type cohortRow struct {
	cohort *Cohort
	// fd is the adopted socket, flushed with non-blocking write(2); conn,
	// when set, is written instead (a conn that is not TCP, or a test's
	// writer) and may block.
	fd     int
	conn   io.WriteCloser
	remote string
	start  time.Time
	id     uint64 // flight-recorder session id
}

// cohortRows is the shard-owned struct-of-arrays state of its sessions. A
// shard tick walks cursors/cohorts/sent/bases contiguously — no
// per-session pointer chase — and retires finished rows by swap-remove.
// The five slices are parallel: row i is (cohorts[i], cursors[i], sent[i],
// bases[i], cold[i]).
type cohortRows struct {
	cohorts []*Cohort
	cursors []int32 // next step to send
	// sent[i] is how many bytes of its cohort's wire row i has written.
	// Below off[cursors[i]] the row is byte-behind: its socket took less
	// than its last flush, and the rest goes out on later ticks.
	sent []int32
	// bases[i] is the model tick at which row i's step 0 was due, so step s
	// is due at tick bases[i]+s: rows admitted on different ticks keep
	// their own schedule. It slides forward when steps are forgiven.
	bases []int64
	cold  []cohortRow
}

// push appends one row whose step 0 is due at tick base.
func (r *cohortRows) push(row cohortRow, base int64) {
	r.cohorts = append(r.cohorts, row.cohort)
	r.cursors = append(r.cursors, 0)
	r.sent = append(r.sent, 0)
	r.bases = append(r.bases, base)
	r.cold = append(r.cold, row)
}

// shard owns a set of sessions and the single clock that steps them. Only
// the registration queue is shared; everything else runs on the shard
// goroutine.
//
//smoothvet:confined owned by the shard loop goroutine after New hands it off
type shard struct {
	eng  *Engine
	quit chan struct{} //smoothvet:shared closed by Engine.Close to stop the loop

	// epoch anchors the model clock: tick n is due at epoch + n·StepDuration.
	// now is the due time (UnixNano) of the tick being served, stamped once
	// per tick: the only clock the tick path reads.
	epoch time.Time
	now   int64

	//smoothvet:shared registration queue: Handle pushes, the loop drains, shutdown closes
	queue reactor.Queue[cohortRow]

	rows cohortRows // the shard's sessions, struct-of-arrays

	// met and rec are this shard's obs slots and flight ring: recorded
	// into only by the shard goroutine, read elsewhere only through their
	// published snapshots.
	met *obs.ShardMetrics //smoothvet:confined
	rec *obs.FlightRecorder
}

// dueAt returns the wall-clock time at which a model tick is due.
//
//smoothvet:noalloc
func (sh *shard) dueAt(tick int64) time.Time {
	return sh.epoch.Add(time.Duration(tick) * sh.eng.cfg.StepDuration)
}

// run is the shard loop, driven by the model clock. Every wake serves the
// latest tick that is due — step brings each session up to it, so ticks
// the shard overran are caught up in one pass instead of being dropped or
// replayed one by one — and then sleeps to the next tick boundary, which
// is already past (the timer fires at once) while the shard is behind.
func (sh *shard) run() {
	defer sh.eng.loopWG.Done()
	d := sh.eng.cfg.StepDuration
	m := sh.eng.met
	var tick int64 // the last tick served
	tm := time.NewTimer(time.Until(sh.dueAt(1)))
	defer tm.Stop()
	for {
		select {
		case <-sh.quit:
			sh.shutdown()
			return
		case <-tm.C:
		}
		if due := int64(time.Since(sh.epoch) / d); due > tick {
			if due > tick+1 {
				sh.met.Inc(m.cTickOverruns)
			}
			tick = due
			sh.step(tick)
			// Step duration and snapshot publication happen outside the
			// noalloc step path: one wall-clock read and one O(metrics)
			// copy per tick, never per session. The duration runs from the
			// tick's due time, so it includes how late the wake was.
			sh.met.Observe(m.hStepDur, time.Since(sh.dueAt(tick)).Microseconds())
			sh.met.Publish()
		}
		tm.Reset(time.Until(sh.dueAt(tick + 1)))
	}
}

// admit moves newly registered sessions onto the shard goroutine. Their
// step 0 is due at the tick being served.
func (sh *shard) admit(tick int64) {
	inc := sh.queue.Drain()
	for i := range inc {
		sh.met.Inc(sh.eng.met.cAdmitted)
		sh.rec.Record(sh.now, obs.EvAdmit, inc[i].id, 0)
		sh.rec.Record(sh.now, obs.EvCohortAssign, inc[i].id, int64(inc[i].cohort.Steps()))
		sh.rows.push(inc[i], tick)
	}
}

// step serves one model tick: it advances every session on the shard to
// the step due at tick, retiring the ones that finished or failed. A
// session is normally one step behind; after the shard skipped ticks it is
// k behind and receives min(k, D) steps at once — D steps are R·D = B
// payload bytes at most, the client buffer the paper provisions to absorb
// exactly that much link output — while steps beyond D are forgiven: the
// session's schedule slides and it finishes that many ticks later. Ticks
// must be strictly increasing. The tick's due time is stamped once into
// sh.now; nothing on this path reads the wall clock.
//
//smoothvet:deterministic
//smoothvet:noalloc
func (sh *shard) step(tick int64) {
	sh.now = sh.dueAt(tick).UnixNano()
	sh.admit(tick)
	sh.stepRows(tick)
	sh.met.Set(sh.eng.met.gActive, uint64(len(sh.rows.cursors)))
}

// stepRows advances the rows to the step due at tick: a contiguous
// walk over the parallel arrays, flushing each phase group — the run of
// sessions on the same cohort at the same cursor, base and sent offset —
// with one non-blocking write per row of one shared pre-encoded span,
// which covers every step the group owes (see step for the bound). A write
// the socket takes only part of commits the steps and leaves the row
// byte-behind: its sent offset is its own, so it forms a group of one, and
// its next write starts where the last one stopped. The tick is the retry
// clock: a row whose backlog has not drained when it is owed more than D
// steps has outrun the client buffer B = R·D and is retired stalled-out.
// Retirement is swap-remove: the last unprocessed row takes the freed slot
// and is processed in place, so every row advances exactly once per tick.
//
//smoothvet:deterministic
//smoothvet:noalloc
func (sh *shard) stepRows(tick int64) {
	rows := &sh.rows
	m := sh.eng.met
	i := 0
	for i < len(rows.cursors) {
		c := rows.cohorts[i]
		cur := rows.cursors[i]
		base := rows.bases[i]
		sent := rows.sent[i]
		// The group owes steps cur..tick-base; send n of them and forgive
		// what exceeds the burst bound, unless the stream ends first.
		d := int64(c.key.delay)
		owed := tick - base + 1 - int64(cur)
		n, forgiven := owed, int64(0)
		if n > d {
			n, forgiven = d, owed-d
		}
		left := int64(c.Steps()) - int64(cur)
		last := n >= left
		if last {
			n, forgiven = left, 0
		}
		next := cur + int32(n)
		buf := c.span(sent, next)
		// One shared span serves the whole phase group [i, j).
		j, served := i, uint64(0)
		for j < len(rows.cursors) && rows.cohorts[j] == c && rows.cursors[j] == cur && rows.bases[j] == base &&
			rows.sent[j] == sent {
			if cur == 0 {
				sh.rec.Record(sh.now, obs.EvFirstWrite, rows.cold[j].id, 0)
			}
			w, err := rows.cold[j].flush(buf)
			if err != nil {
				sh.retireRow(j, cur, err)
				continue // the swapped-in row is processed at j
			}
			if sent+int32(w) < c.off[cur] {
				// The backlog has not drained: the steps stay owed.
				if owed > d {
					sh.retireRow(j, cur, errStalledOut)
					continue
				}
				rows.sent[j] += int32(w)
				j++
				continue
			}
			served++
			if last && w == len(buf) {
				sh.retireRow(j, next, nil)
				continue
			}
			rows.cursors[j] = next
			rows.sent[j] = sent + int32(w)
			rows.bases[j] = base + forgiven
			j++
		}
		sh.met.Add(m.cCatchupSteps, served*uint64(max(n-1, 0)))
		sh.met.Add(m.cForgivenSteps, served*uint64(forgiven))
		i = j
	}
}

// flush writes p to the row's connection. A socket takes what its send
// buffer has room for: a full buffer is a short write, not an error
// (reactor.Write).
//
//smoothvet:noalloc
func (r *cohortRow) flush(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if r.conn != nil {
		return r.conn.Write(p)
	}
	return reactor.Write(r.fd, p)
}

// close releases the row's connection.
func (r *cohortRow) close() {
	if r.conn != nil {
		_ = r.conn.Close()
	} else {
		_ = reactor.Close(r.fd)
	}
}

// retireRow finishes the cohort session in slot j after steps completed
// steps (err nil = clean drain to End) and swap-removes its row. It sits on
// the noalloc tick path, so Elapsed is derived from sh.now — stamped once
// per tick (and once by shutdown) — instead of re-reading the wall clock
// per retirement.
func (sh *shard) retireRow(j int, steps int32, err error) {
	rows := &sh.rows
	cold := &rows.cold[j]
	dropped := rows.cohorts[j].droppedThrough(steps)
	cold.close()
	sh.noteSessionEnd(cold.id, int(steps), err)
	e := sh.eng
	e.active.Add(-1)
	e.served.Add(1)
	e.sessWG.Done()
	if e.cfg.OnSessionDone != nil {
		e.cfg.OnSessionDone(SessionStats{
			Remote:  cold.remote,
			Steps:   int(steps),
			Dropped: dropped,
			Elapsed: time.Unix(0, sh.now).Sub(cold.start),
		}, err)
	}
	n := len(rows.cursors) - 1
	rows.cohorts[j] = rows.cohorts[n]
	rows.cursors[j] = rows.cursors[n]
	rows.sent[j] = rows.sent[n]
	rows.bases[j] = rows.bases[n]
	rows.cold[j] = rows.cold[n]
	rows.cohorts[n] = nil
	rows.cold[n] = cohortRow{}
	rows.cohorts = rows.cohorts[:n]
	rows.cursors = rows.cursors[:n]
	rows.sent = rows.sent[:n]
	rows.bases = rows.bases[:n]
	rows.cold = rows.cold[:n]
}

// shutdown aborts every session still registered on the shard.
func (sh *shard) shutdown() {
	// Re-stamp the clock so retirements during drain report an Elapsed
	// that covers the time since the last tick.
	sh.now = time.Now().UnixNano()
	for _, row := range sh.queue.Close() {
		sh.rows.push(row, 0)
	}
	for len(sh.rows.cursors) > 0 {
		sh.retireRow(len(sh.rows.cursors)-1, sh.rows.cursors[len(sh.rows.cursors)-1], errAborted)
	}
	sh.met.Set(sh.eng.met.gActive, 0)
	sh.met.Publish()
}
