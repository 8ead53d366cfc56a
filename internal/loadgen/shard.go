package loadgen

import (
	"errors"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/reactor"
	"repro/internal/stats"
)

// shardScratchSize is the per-shard read buffer: one non-blocking read
// drains up to this much of a socket before yielding to the next ready
// session.
const shardScratchSize = 256 << 10

var (
	errUnexpectedMsg = errors.New("loadgen: unexpected message mid-stream")
	errIdleTimeout   = errors.New("loadgen: session idle timeout")
	errEngineClosed  = errors.New("loadgen: engine is closed")
)

// session is one client stream's state between reactor wakes: an fd, a
// lag anchor, a partial-message tail and a sliding receive window. It
// has no goroutine and no timer; everything below ~anchorWindow messages
// is fixed-size, and pending/win reach a stream-dependent steady state.
type session struct {
	reactor.Slot
	idx  int
	wave int // the Run wave that dialed it
	fd   int // adopted (reactor.Adopt): the shard closes it at retirement

	delay     int
	stepNanos int64

	// Lag anchor (see the package comment): provisional at the first
	// message, refined by the minimum of the first anchorWindow lags.
	anchored bool
	refined  bool
	nEarly   int
	early    [anchorWindow]int64 // µs, relative to the provisional anchor
	anchor   int64               // engine-monotonic nanos of schedule zero
	rebase   int64               // µs subtracted from post-refinement lags

	lastData int64  // shard stamp of the last readable byte (idle timeout)
	pending  []byte // partial-message tail carried between reads
	ended    bool   // End decoded; retire as completed

	win     core.RecvWindow
	bytes   int64
	msgs    int64
	maxStep int
	digest  uint64
	start   time.Time
}

// tally accumulates one shard's finished-session aggregates; only the
// owning shard goroutine touches it.
type tally struct {
	completed       int
	midStreamFailed int
	bytes           int64
	msgs            int64
	played          int
	incomplete      int
	maxIncomplete   int
	lateBytes       int
}

// shard is one reactor loop plus what a client session needs on top of it:
// one scratch read buffer, one decoder, one lag histogram.
//
//smoothvet:confined owned by the reactor goroutine after New hands it off
type shard struct {
	reactor.Loop[*session]
	eng *Engine

	scratch []byte
	dec     netstream.Decoder

	// lag aliases the live obs histogram slot (Met.HistRef), so the
	// per-message Add is also the scrape-visible series.
	lag   *stats.LogHistogram
	tally tally
	// wave is the Run wave lag and tally count; the first session of a
	// later wave clears them.
	wave int

	// rec is this shard's flight ring: like Met, recorded into only by the
	// reactor goroutine and read elsewhere only through published snapshots.
	rec *obs.FlightRecorder
}

// newShardCore builds shard idx without a poller — the socket-free form
// the density benchmarks drive through feed directly. Engines built
// outside New (benchmarks) get a single-purpose registry on demand.
func newShardCore(e *Engine, idx int) *shard {
	if e.met == nil {
		e.met = newLoadMetrics(idx+1, nil)
		e.recs = make([]*obs.FlightRecorder, idx+1)
		for i := range e.recs {
			e.recs[i] = obs.NewFlightRecorder(0)
		}
	}
	m := e.met.reg.Shard(idx)
	sh := &shard{
		eng:     e,
		scratch: make([]byte, shardScratchSize),
		lag:     m.HistRef(e.met.hLag),
		rec:     e.recs[idx],
	}
	sh.Loop = reactor.Loop[*session]{
		Handler: sh, Now: e.monotonic, Closing: &e.closing, ErrClosed: errEngineClosed,
		Met: m, Active: e.met.gActive, Wakes: e.met.cWakes, WakeEvents: e.met.hWakeEvents,
	}
	return sh
}

func newShard(e *Engine, idx int) (*shard, error) {
	p, err := reactor.NewPoller()
	if err != nil {
		return nil, err
	}
	sh := newShardCore(e, idx)
	sh.Poller = p
	return sh, nil
}

// resetStats clears the per-wave aggregates; the histogram resets go
// through ResetHist, whose snapshot mutex orders them against scrapes.
func (sh *shard) resetStats() {
	sh.Met.ResetHist(sh.eng.met.hLag)
	sh.Met.ResetHist(sh.eng.met.hOccupancy)
	sh.tally = tally{}
}

// join makes wave the one the shard's lag and tally count. The shard's
// first contact with a session of a later wave clears them: that
// session's Admit, or its retirement when Close ends the wave while the
// session is still queued.
func (sh *shard) join(wave int) {
	if wave != sh.wave {
		sh.resetStats()
		sh.wave = wave
	}
}

// Admit registers one queued session. No immediate drain: epoll is
// level-triggered, so bytes that arrived while the session sat in the
// queue surface on the next wait.
func (sh *shard) Admit(s *session, now int64) {
	sh.join(s.wave)
	if err := sh.Poller.Add(s.fd, reactor.In|reactor.RdHup); err != nil {
		sh.Retire(s, err, now)
		return
	}
	sh.Met.Inc(sh.eng.met.cAdmitted)
	sh.rec.Record(now, obs.EvAdmit, uint64(s.idx), 0)
	sh.Table.Add(s, s.fd)
	s.lastData = now
}

// Expired retires a session that has received nothing for IdleTimeout.
func (sh *shard) Expired(s *session, now int64) error {
	if reactor.Overdue(sh.eng.cfg.IdleTimeout, s.lastData, now) {
		return errIdleTimeout
	}
	return nil
}

// Retire fails a session mid-stream: a timeout, an engine close, a
// registration error.
func (sh *shard) Retire(s *session, err error, now int64) {
	sh.retire(s, StageMidStream, err, now)
}

// retire finishes a session: success when stage is "", else a mid-stream
// failure. Runs on the shard goroutine. now is the caller's wake stamp
// (engine-monotonic nanos): retire sits downstream of the noalloc drain
// path, so it derives Elapsed from the stamp instead of re-reading the
// wall clock.
func (sh *shard) retire(s *session, stage string, err error, now int64) {
	sh.join(s.wave)
	_ = sh.Poller.Del(s.fd) // fails only for an fd Admit could not add
	sh.Table.Remove(s, s.fd)
	if s.fd >= 0 {
		_ = reactor.Close(s.fd)
	}
	if !s.refined && s.nEarly > 0 {
		sh.flushEarly(s)
	}
	if stage == "" {
		s.win.Finish()
		sh.Met.Inc(sh.eng.met.cCompleted)
		sh.Met.Observe(sh.eng.met.hOccupancy, int64(s.win.MaxOccupancy()))
		sh.rec.Record(now, obs.EvRetire, uint64(s.idx), int64(s.maxStep+1))
		sh.tally.completed++
		sh.tally.bytes += s.bytes
		sh.tally.msgs += s.msgs
		sh.tally.played += s.win.Played()
		sh.tally.incomplete += s.win.Incomplete()
		sh.tally.lateBytes += s.win.LateBytes()
		if s.win.Incomplete() > sh.tally.maxIncomplete {
			sh.tally.maxIncomplete = s.win.Incomplete()
		}
	} else {
		sh.Met.Inc(sh.eng.met.cMidFailed)
		sh.rec.Record(now, obs.EvError, uint64(s.idx), int64(s.maxStep+1))
		sh.tally.midStreamFailed++
	}
	if cb := sh.eng.cfg.OnSessionDone; cb != nil {
		cb(SessionStats{
			Index:      s.idx,
			Stage:      stage,
			Err:        err,
			Steps:      s.maxStep + 1,
			Bytes:      s.bytes,
			Played:     s.win.Played(),
			Incomplete: s.win.Incomplete(),
			LateBytes:  s.win.LateBytes(),
			MaxBuffer:  s.win.MaxOccupancy(),
			Digest:     s.digest,
			Elapsed:    sh.eng.base.Add(time.Duration(now)).Sub(s.start),
		})
	}
	sh.eng.finishOne()
}

// Ready empties one ready socket into the shard scratch buffer and
// feeds the bytes through the decoder. A short read means the socket
// buffer is (momentarily) empty; level-triggered epoll re-arms for
// whatever arrives next.
//
//smoothvet:noalloc
func (sh *shard) Ready(s *session, _ int, _ uint32, now int64) {
	for {
		n, err := reactor.Read(s.fd, sh.scratch)
		if err != nil {
			if err == io.EOF {
				// EOF before End: the peer hung up mid-stream.
				err = io.ErrUnexpectedEOF
			}
			sh.retire(s, StageMidStream, err, now)
			return
		}
		if n == 0 {
			return
		}
		s.lastData = now
		if ferr := sh.feed(s, sh.scratch[:n], now); ferr != nil {
			sh.retire(s, StageMidStream, ferr, now)
			return
		}
		if s.ended {
			sh.retire(s, "", nil, now)
			return
		}
		if n < len(sh.scratch) {
			return
		}
	}
}

// feed pushes freshly read bytes through the shard decoder, carrying any
// partial-message tail over in the session's pending buffer. This is the
// per-step hot path: steady state performs no allocation (pending grows
// to the largest partial tail once, then is reused).
//
//smoothvet:noalloc
func (sh *shard) feed(s *session, chunk []byte, now int64) error {
	buf := chunk
	if len(s.pending) > 0 {
		s.pending = append(s.pending, chunk...)
		buf = s.pending
	}
	consumed, err := sh.parse(s, buf, now)
	if err != nil {
		return err
	}
	rest := buf[consumed:]
	if len(s.pending) > 0 {
		// Shift the unconsumed tail to the front; copy is overlap-safe.
		n := copy(s.pending, rest)
		s.pending = s.pending[:n]
	} else if len(rest) > 0 {
		s.pending = s.pending[:0]
		s.pending = append(s.pending, rest...)
	}
	return nil
}

// parse decodes every complete message in buf, returning the bytes
// consumed. The shard decoder decodes each message in place — no
// per-session decoder state, no copy, no blocking; a payload aliases buf
// and is not retained past onData.
//
//smoothvet:noalloc
func (sh *shard) parse(s *session, buf []byte, now int64) (int, error) {
	off := 0
	for {
		msg, n, err := sh.dec.Parse(buf[off:])
		if err != nil {
			return off, err
		}
		if n > len(buf)-off {
			return off, nil
		}
		off += n
		switch {
		case msg.Data != nil:
			if err := sh.onData(s, msg.Data, now); err != nil {
				return off, err
			}
		case msg.End:
			s.ended = true
			return off, nil
		default:
			return off, errUnexpectedMsg
		}
	}
}

// onData applies one data message: lag measurement against the pacing
// schedule, then netstream.ReceiveStream's resolve-then-ingest playout
// order on the receive window.
//
//smoothvet:noalloc
func (sh *shard) onData(s *session, d *netstream.Data, now int64) error {
	if err := d.Check(); err != nil {
		return err
	}
	ideal := int64(d.SendStep) * s.stepNanos
	if !s.anchored {
		s.anchor = now - ideal
		s.anchored = true
		sh.rec.Record(now, obs.EvFirstWrite, uint64(s.idx), int64(d.SendStep))
	}
	lag := (now - s.anchor - ideal) / int64(time.Microsecond)
	if !s.refined {
		s.early[s.nEarly] = lag
		s.nEarly++
		if s.nEarly == anchorWindow {
			sh.flushEarly(s)
		}
	} else {
		sh.lag.Add(lag - s.rebase)
	}
	s.bytes += int64(len(d.Payload))
	s.msgs++
	step := int(d.SendStep)
	if step > s.maxStep {
		s.maxStep = step
	}
	// Frames due strictly before this message's send step have reached
	// their playout deadline: resolve them, then ingest.
	s.win.ResolveTo(step - 1 - s.delay)
	s.win.Ingest(int32(d.SliceID), int(d.Arrival), int32(d.Size), int32(len(d.Payload)))
	if sh.eng.cfg.Digest {
		s.digest = fnvFold(fnvFold(fnvFold(fnvFold(s.digest, d.SliceID), d.SendStep), d.Offset), uint32(len(d.Payload)))
	}
	return nil
}

// flushEarly rebases the buffered leading lags by their minimum and
// records them; later lags subtract the same rebase.
//
//smoothvet:noalloc
func (sh *shard) flushEarly(s *session) {
	if s.nEarly == 0 {
		s.refined = true
		return
	}
	min := s.early[0]
	for _, v := range s.early[:s.nEarly] {
		if v < min {
			min = v
		}
	}
	s.rebase = min
	for _, v := range s.early[:s.nEarly] {
		sh.lag.Add(v - min)
	}
	s.refined = true
	s.nEarly = 0
}

// FNV-1a over little-endian uint32s: the per-session message-sequence
// digest the shard-count invariance tests compare.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

//smoothvet:noalloc
func fnvFold(h uint64, v uint32) uint64 {
	h ^= uint64(v & 0xff)
	h *= fnvPrime64
	h ^= uint64((v >> 8) & 0xff)
	h *= fnvPrime64
	h ^= uint64((v >> 16) & 0xff)
	h *= fnvPrime64
	h ^= uint64(v >> 24)
	h *= fnvPrime64
	return h
}
