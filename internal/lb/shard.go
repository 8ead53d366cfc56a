package lb

import (
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/reactor"
)

// relayChunk bounds one backend read, and so what a stalled session holds
// in pending: far above the tens of bytes a step carries, and no more than
// a default Linux pipe holds.
const relayChunk = 64 << 10

// session is one relayed stream's state between reactor wakes: two fds,
// the bytes the client's socket refused, and stall/idle stamps. It has no
// goroutine and no timer.
type session struct {
	reactor.Slot
	id uint64
	// The placer handshakes on the conns, then adopts both sockets
	// (reactor.Adopt): a session on a shard holds only the fds, and
	// release closes them.
	clientConn  net.Conn
	backendConn net.Conn
	cfd, bfd    int

	backend    *backend
	backendIdx int
	hello      netstream.Hello
	accept     netstream.Accept
	retries    int
	admitted   int64 // engine-monotonic nanos at front-door admit
	start      time.Time

	// Relay state, owned by the shard after registration.
	pending    []byte // read from the backend, refused by the client
	anchored   bool   // first relayed byte recorded (EvFirstWrite)
	clientGone bool   // client hung up with nothing undelivered; backend decides
	stalled    bool
	stallStart int64
	lastData   int64
	bytes      int64
}

// shard is one reactor loop plus what a relayed session needs on top of
// it: a flight ring and the buffer every relayed read passes through.
//
//smoothvet:confined owned by the relay reactor goroutine after New hands it off
type shard struct {
	reactor.Loop[*session]
	eng *Engine

	// rec is this shard's flight ring: like Met, recorded into only by the
	// reactor goroutine.
	rec *obs.FlightRecorder
	buf []byte // relayChunk bytes, reused by every read
}

func newShard(e *Engine, idx int) (*shard, error) {
	p, err := reactor.NewPoller()
	if err != nil {
		return nil, err
	}
	sh := &shard{eng: e, rec: e.recs[idx+1], buf: make([]byte, relayChunk)}
	sh.Loop = reactor.Loop[*session]{
		Poller: p, Handler: sh, Now: e.monotonic, Closing: &e.closing, ErrClosed: errRelayShutdown,
		Met: e.met.reg.Shard(idx), Active: e.met.gActive, Wakes: e.met.cWakes, WakeEvents: e.met.hWakeEvents,
	}
	return sh, nil
}

// Admit starts the relay for one placed session.
func (sh *shard) Admit(s *session, now int64) {
	sh.Met.Observe(sh.eng.met.hAdmitWait, (now-s.admitted)/1000)
	s.lastData = now
	if err := sh.startRelay(s); err != nil {
		sh.Retire(s, err, now)
		return
	}
	sh.Met.Inc(sh.eng.met.cRelayed)
}

// Retire finishes a session: success when err is nil, else a relay
// failure. Runs on the shard goroutine. now is the caller's wake stamp;
// Retire sits downstream of the noalloc relay path, so it derives
// Elapsed from the stamp instead of re-reading the wall clock.
func (sh *shard) Retire(s *session, err error, now int64) {
	sh.closeRelay(s)
	if s.backend != nil {
		s.backend.active.Add(-1)
	}
	m := sh.eng.met
	if err == nil {
		sh.Met.Inc(m.cCompleted)
		sh.rec.Record(now, obs.EvRetire, s.id, s.bytes)
	} else {
		sh.Met.Inc(m.cFailed)
		sh.rec.Record(now, obs.EvError, s.id, int64(s.backendIdx))
	}
	sh.eng.sessionDone(s, err, now)
}

// Expired applies the tier's two timeouts: a client whose write has been
// stalled for StallTimeout, else a backend silent for IdleTimeout.
func (sh *shard) Expired(s *session, now int64) error {
	if s.stalled {
		if reactor.Overdue(sh.eng.cfg.StallTimeout, s.stallStart, now) {
			return errStallTimeout
		}
	} else if reactor.Overdue(sh.eng.cfg.IdleTimeout, s.lastData, now) {
		return errIdleTimeout
	}
	return nil
}

// Ready routes one epoll event: client-fd events notice a hangup or
// resume a stalled write; backend-fd events pump the relay.
//
//smoothvet:noalloc
func (sh *shard) Ready(s *session, fd int, events uint32, now int64) {
	if fd == s.cfd {
		if events&(reactor.RdHup|reactor.Hup|reactor.Err) != 0 {
			sh.onClientHup(s, now)
			return
		}
		if s.stalled {
			s.stalled = false
			sh.Met.Observe(sh.eng.met.hStall, (now-s.stallStart)/1000)
			if err := sh.Poller.Mod(s.cfd, reactor.RdHup); err != nil {
				sh.Retire(s, err, now)
				return
			}
			// The backend fd left the epoll set at stall time; bytes it
			// buffered meanwhile surface level-triggered once re-added.
			if err := sh.Poller.Add(s.bfd, reactor.In|reactor.RdHup); err != nil {
				sh.Retire(s, err, now)
				return
			}
			sh.relay(s, now)
		}
		return
	}
	if s.stalled {
		// A backend event harvested in the same wake batch as the stall:
		// re-entering relay would re-stall and reset the stall clock,
		// defeating StallTimeout. The data keeps until the client resumes.
		return
	}
	sh.relay(s, now)
}

// onClientHup classifies a client hangup. Undelivered bytes in pending
// mean the client abandoned mid-stream: fail the session. With nothing
// undelivered the verdict belongs to the backend: its EOF means the client
// consumed the whole stream and simply closed first (the two FINs race
// through separate sockets, which is not a failure), while further
// payload is undeliverable. The session lingers on backend events until
// one of those arrives; the idle sweep bounds the wait. The client fd
// leaves the epoll set here so its level-triggered HUP stops re-firing
// every wake.
//
//smoothvet:noalloc
func (sh *shard) onClientHup(s *session, now int64) {
	if s.clientGone {
		return
	}
	if len(s.pending) > 0 {
		sh.Retire(s, errClientGone, now)
		return
	}
	s.clientGone = true
	_ = sh.Poller.Del(s.cfd)
	// The backend's EOF may already be queued on its socket: resolve
	// immediately when it is.
	sh.finishClientGone(s, now)
}

// finishClientGone pumps the backend of a client-gone session to a
// verdict: payload fails it, EOF completes it, an empty socket waits for
// the next backend event.
//
//smoothvet:noalloc
func (sh *shard) finishClientGone(s *session, now int64) {
	n, err := reactor.Read(s.bfd, sh.buf)
	switch {
	case n > 0:
		sh.Retire(s, errClientGone, now)
	case err == io.EOF && s.bytes > 0:
		sh.Retire(s, nil, now)
	case err == io.EOF:
		sh.Retire(s, errClientGone, now)
	case err != nil:
		sh.Retire(s, err, now)
	}
}

// startRelay wires a placed session into the reactor: the backend fd armed
// for readability and the client fd for hangup only (the relay never reads
// the client). No immediate relay: epoll is level-triggered, so bytes the
// backend sent while the session sat in the queue surface on the next
// wait.
func (sh *shard) startRelay(s *session) error {
	if err := sh.Poller.Add(s.bfd, reactor.In|reactor.RdHup); err != nil {
		return fmt.Errorf("lb: epoll add backend: %w", err)
	}
	if err := sh.Poller.Add(s.cfd, reactor.RdHup); err != nil {
		return fmt.Errorf("lb: epoll add client: %w", err)
	}
	sh.Table.Add(s, s.bfd, s.cfd)
	return nil
}

// closeRelay releases a session's reactor resources: epoll entries, its
// place in the table, the sockets.
func (sh *shard) closeRelay(s *session) {
	_ = sh.Poller.Del(s.bfd) // either fd may never have been added, or
	_ = sh.Poller.Del(s.cfd) // have left the set at a stall or a hangup
	sh.Table.Remove(s, s.bfd, s.cfd)
	s.release()
}

// adopt takes both sockets of a handshaken session out of the runtime's
// poller. On error the session still holds what release closes.
func (s *session) adopt() (err error) {
	ctc, cok := s.clientConn.(*net.TCPConn)
	btc, bok := s.backendConn.(*net.TCPConn)
	if !cok || !bok {
		return fmt.Errorf("lb: %T to %T is not a TCP connection pair", s.clientConn, s.backendConn)
	}
	if s.cfd, err = reactor.Adopt(ctc); err != nil {
		return err
	}
	s.clientConn = nil
	if s.bfd, err = reactor.Adopt(btc); err != nil {
		return err
	}
	s.backendConn = nil
	return nil
}

// release closes whatever sockets the session holds: conns before
// adoption, fds after.
func (s *session) release() {
	if s.clientConn != nil {
		_ = s.clientConn.Close()
	}
	if s.backendConn != nil {
		_ = s.backendConn.Close()
	}
	if s.cfd >= 0 {
		_ = reactor.Close(s.cfd)
	}
	if s.bfd >= 0 {
		_ = reactor.Close(s.bfd)
	}
	s.clientConn, s.backendConn, s.cfd, s.bfd = nil, nil, -1, -1
}

// relay is the steady-state hot path: what the client refused last time
// goes first, then one read of at most relayChunk from the backend is
// written to the client. Once a read has gone to the client the call
// returns instead of reading again: that read would almost always find the
// backend empty, and the backend fd is watched level-triggered, so the
// next wait reports it again while bytes or EOF remain.
//
//smoothvet:noalloc
func (sh *shard) relay(s *session, now int64) {
	if s.clientGone {
		sh.finishClientGone(s, now)
		return
	}
	if len(s.pending) > 0 && !sh.send(s, s.pending, now) {
		return
	}
	n, err := reactor.Read(s.bfd, sh.buf)
	if err == io.EOF {
		// Backend EOF with nothing pending: the stream is through.
		sh.Retire(s, nil, now)
		return
	}
	if err != nil {
		sh.Retire(s, err, now)
		return
	}
	if n == 0 {
		return
	}
	s.lastData = now
	if !s.anchored {
		s.anchored = true
		sh.rec.Record(now, obs.EvFirstWrite, s.id, int64(s.backendIdx))
	}
	sh.send(s, sh.buf[:n], now)
}

// send writes p to the client and reports whether all of it went. What
// the client's socket refuses parks in pending (p may be pending itself)
// and stalls the session.
//
//smoothvet:noalloc
func (sh *shard) send(s *session, p []byte, now int64) bool {
	n, err := reactor.Write(s.cfd, p)
	if err != nil {
		sh.Retire(s, err, now)
		return false
	}
	s.bytes += int64(n)
	s.pending = s.pending[:0]
	s.pending = append(s.pending, p[n:]...)
	if len(s.pending) > 0 {
		sh.stall(s, now)
		return false
	}
	return true
}

// stall parks a session on client writability. The backend fd leaves the
// epoll set for the duration: its level-triggered readability would
// otherwise spin the reactor awake (and, via relay, reset the stall
// clock) the whole time the client is parked. Backend bytes not yet read
// wait in its socket buffer and resurface when Ready re-adds the fd at
// resume.
func (sh *shard) stall(s *session, now int64) {
	if s.stalled {
		return
	}
	s.stalled = true
	s.stallStart = now
	sh.Met.Inc(sh.eng.met.cStalls)
	if err := sh.Poller.Del(s.bfd); err != nil {
		sh.Retire(s, err, now)
		return
	}
	if err := sh.Poller.Mod(s.cfd, reactor.Out|reactor.RdHup); err != nil {
		sh.Retire(s, err, now)
	}
}
