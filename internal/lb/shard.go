package lb

import (
	"fmt"
	"net"
	"syscall"
	"time"

	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/reactor"
)

// spliceChunk bounds one backend→pipe splice; the default pipe holds
// 64 KiB, so a larger request just returns partial.
const spliceChunk = 256 << 10

// session is one relayed stream's state between reactor wakes: two fds,
// a kernel pipe holding in-flight bytes, and stall/idle stamps. It has
// no goroutine and no timer.
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
	enqueued   int64 // engine-monotonic nanos at front-door admit
	start      time.Time

	// Relay state, owned by the shard after registration.
	pipeR, pipeW int
	pipeFill     int  // bytes parked in the pipe (disambiguates EAGAIN)
	ended        bool // backend EOF seen; retire once the pipe drains
	anchored     bool // first relayed byte recorded (EvFirstWrite)
	clientGone   bool // client hung up with nothing undelivered; backend decides
	stalled      bool
	stallStart   int64
	lastData     int64
	bytes        int64
}

// shard is one reactor loop plus what a relayed session needs on top of
// it: a flight ring.
//
//smoothvet:confined owned by the relay reactor goroutine after New hands it off
type shard struct {
	reactor.Loop[*session]
	eng *Engine

	// rec is this shard's flight ring: like Met, recorded into only by the
	// reactor goroutine.
	rec *obs.FlightRecorder
}

func newShard(e *Engine, idx int) (*shard, error) {
	p, err := reactor.NewPoller()
	if err != nil {
		return nil, err
	}
	sh := &shard{eng: e, rec: e.recs[idx+1]}
	sh.Loop = reactor.Loop[*session]{
		Poller: p, Handler: sh, Now: e.monotonic, Closing: &e.closing, ErrClosed: errRelayShutdown,
		Met: e.met.reg.Shard(idx), Active: e.met.gActive, Wakes: e.met.cWakes, WakeEvents: e.met.hWakeEvents,
	}
	return sh, nil
}

// Admit starts the relay for one placed session.
func (sh *shard) Admit(s *session, now int64) {
	sh.Met.Observe(sh.eng.met.hAdmitWait, (now-s.enqueued)/1000)
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

// Ready routes one epoll event: client-fd events resume a stalled
// write or notice a hangup; backend-fd events pump the relay.
//
//smoothvet:noalloc
func (sh *shard) Ready(s *session, fd int, events uint32, now int64) {
	if fd == s.cfd {
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
			return
		}
		if events&(reactor.RdHup|reactor.Hup|reactor.Err) != 0 {
			sh.onClientHup(s, now)
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

// onClientHup classifies a client hangup. Undelivered bytes in the pipe
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
	if s.pipeFill > 0 {
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
// verdict: payload fails it, EOF completes it, EAGAIN waits for the next
// backend event.
//
//smoothvet:noalloc
func (sh *shard) finishClientGone(s *session, now int64) {
	for {
		n, err := reactor.Splice(s.bfd, s.pipeW, spliceChunk)
		if n > 0 {
			sh.Retire(s, errClientGone, now)
			return
		}
		if err == nil {
			if s.ended || s.bytes > 0 {
				sh.Retire(s, nil, now)
			} else {
				sh.Retire(s, errClientGone, now)
			}
			return
		}
		if en, ok := err.(syscall.Errno); ok {
			if en == syscall.EAGAIN {
				return
			}
			if en == syscall.EINTR {
				continue
			}
		}
		sh.Retire(s, err, now)
		return
	}
}

// startRelay wires a placed session into the reactor: a pipe pair for
// the splice path, the backend fd armed for readability and the client fd
// for hangup only (the relay never reads the client). No immediate relay:
// epoll is level-triggered, so bytes the backend sent while the session sat
// in the queue surface on the next wait.
func (sh *shard) startRelay(s *session) (err error) {
	if s.pipeR, s.pipeW, err = reactor.Pipe(); err != nil {
		return err
	}
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
// place in the table, the pipe pair, the sockets.
func (sh *shard) closeRelay(s *session) {
	_ = sh.Poller.Del(s.bfd) // either fd may never have been added, or
	_ = sh.Poller.Del(s.cfd) // have left the set at a stall or a hangup
	sh.Table.Remove(s, s.bfd, s.cfd)
	if s.pipeR >= 0 {
		_ = syscall.Close(s.pipeR)
		_ = syscall.Close(s.pipeW)
		s.pipeR, s.pipeW = -1, -1
	}
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
		_ = syscall.Close(s.cfd)
	}
	if s.bfd >= 0 {
		_ = syscall.Close(s.bfd)
	}
	s.clientConn, s.backendConn, s.cfd, s.bfd = nil, nil, -1, -1
}

// relay is the steady-state hot path: drain the pipe into the client,
// refill it from the backend, entirely kernel-to-kernel. pipeFill tracks
// the bytes parked in the pipe, which disambiguates EAGAIN (empty source
// vs full sink) without a peek syscall. Once a refill has drained to the
// client the call returns instead of splicing again: that splice would
// almost always find the backend empty, and the backend fd is watched
// level-triggered, so the next wait reports it again while bytes or EOF
// remain.
//
//smoothvet:noalloc
func (sh *shard) relay(s *session, now int64) {
	if s.clientGone {
		sh.finishClientGone(s, now)
		return
	}
	for refilled := false; ; {
		for s.pipeFill > 0 {
			n, err := reactor.Splice(s.pipeR, s.cfd, s.pipeFill)
			if n > 0 {
				s.pipeFill -= int(n)
				s.bytes += n
				continue
			}
			if en, ok := err.(syscall.Errno); ok {
				if en == syscall.EAGAIN {
					// The client's socket buffer is full: park on
					// EPOLLOUT.
					sh.stall(s, now)
					return
				}
				if en == syscall.EINTR {
					continue
				}
			}
			sh.Retire(s, err, now)
			return
		}
		if s.ended {
			sh.Retire(s, nil, now)
			return
		}
		if refilled {
			return
		}
		n, err := reactor.Splice(s.bfd, s.pipeW, spliceChunk)
		if n > 0 {
			s.pipeFill += int(n)
			s.lastData = now
			refilled = true
			if !s.anchored {
				s.anchored = true
				sh.rec.Record(now, obs.EvFirstWrite, s.id, int64(s.backendIdx))
			}
			continue
		}
		if err == nil {
			// Backend EOF: flush whatever the pipe still holds, then
			// retire clean on the next loop.
			s.ended = true
			continue
		}
		if en, ok := err.(syscall.Errno); ok {
			if en == syscall.EAGAIN {
				return
			}
			if en == syscall.EINTR {
				continue
			}
		}
		sh.Retire(s, err, now)
		return
	}
}

// stall parks a session on client writability. The backend fd leaves the
// epoll set for the duration: its level-triggered readability would
// otherwise spin the reactor awake (and, via relay, reset the stall
// clock) the whole time the client is parked. Pending backend bytes wait
// in its socket buffer and resurface when Ready re-adds the fd at
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
