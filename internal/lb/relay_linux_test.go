//go:build linux

package lb

import (
	"bytes"
	"errors"
	"io"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/reactor"
)

// relayEngine builds an engine shell with live metrics and one backend but
// no goroutines, for tests and benchmarks that drive a relay shard by hand.
// done, when not nil, receives every finished session.
func relayEngine(tb testing.TB, shards int, done *[]SessionStats) *Engine {
	tb.Helper()
	e := &Engine{
		cfg: Config{
			Backends:     []string{"test"},
			IdleTimeout:  -1,
			StallTimeout: -1,
		},
		base: time.Now(),
		quit: make(chan struct{}),
	}
	if done != nil {
		e.cfg.OnSessionDone = func(st SessionStats) { *done = append(*done, st) }
	}
	e.backends = []*backend{{idx: 0, addr: "test"}}
	e.met = newLBMetrics(e, shards, nil)
	e.recs = make([]*obs.FlightRecorder, shards+1)
	for i := range e.recs {
		e.recs[i] = obs.NewFlightRecorder(0)
	}
	return e
}

// socketPair returns the two ends of a connected, non-blocking unix stream
// socket pair: the relay reads and writes them exactly as it does TCP
// sockets.
func socketPair(tb testing.TB) (a, b int) {
	tb.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return fds[0], fds[1]
}

// relaySession admits one session on sh whose backend and client sockets
// are socket pairs, and returns the test's ends of them: the backend's
// write side and the client's read side. The test closes both.
func relaySession(t *testing.T, sh *shard, id uint64) (s *session, backendW, clientR int) {
	t.Helper()
	bfd, backendW := socketPair(t)
	cfd, clientR := socketPair(t)
	e := sh.eng
	s = &session{id: id, bfd: bfd, cfd: cfd, backend: e.backends[0]}
	e.backends[0].active.Add(1)
	sh.Queue.Push(s)
	sh.Wake(nil, 1) // admit: both fds armed
	if sh.Table.Len() == 0 {
		t.Fatal("the session was not admitted")
	}
	return s, backendW, clientR
}

// TestRelayEndsCleanOnNextWake: a backend that sends its last bytes and
// its FIN together has them relayed in one wake and is retired clean on
// the next. The first wake returns once its read has gone to the client,
// without a read that would find the backend empty; the backend fd,
// readable at EOF, is reported again by the next wait, whose wake reads
// the EOF and completes the session.
func TestRelayEndsCleanOnNextWake(t *testing.T) {
	var done []SessionStats
	e := relayEngine(t, 1, &done)
	sh, err := newShard(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Poller.Close()
	s, backendW, clientR := relaySession(t, sh, 1)
	defer reactor.Close(clientR)

	last := []byte("the last frame, then FIN")
	if _, err := reactor.Write(backendW, last); err != nil {
		t.Fatal(err)
	}
	if err := reactor.Close(backendW); err != nil {
		t.Fatal(err)
	}
	wake := func(now int64) {
		t.Helper()
		events := sh.Poller.Wait()
		if len(events) != 1 || int(events[0].Fd) != s.bfd {
			t.Fatalf("wake at %d: wait reported %v, want the backend fd %d alone", now, events, s.bfd)
		}
		sh.Wake(events, now)
	}

	wake(2)
	buf := make([]byte, 64)
	if n, err := reactor.Read(clientR, buf); err != nil || string(buf[:n]) != string(last) {
		t.Fatalf("client read %q, %v after the first wake, want %q", buf[:n], err, last)
	}
	if len(done) != 0 || sh.Table.Len() != 1 {
		t.Fatalf("the first wake ended the session (%d done, table %d): it read past the first read", len(done), sh.Table.Len())
	}

	wake(3)
	if len(done) != 1 || done[0].Err != nil || done[0].Bytes != int64(len(last)) {
		t.Fatalf("after the second wake: %+v, want one clean session of %d bytes", done, len(last))
	}
	if sh.Table.Len() != 0 {
		t.Errorf("the finished session is still in the table")
	}
	snap := e.met.reg.Snapshot(nil)
	if got := snap.Scalars[e.met.cCompleted]; got != 1 {
		t.Errorf("lb_sessions_completed_total %d, want 1", got)
	}
	if got, events := snap.Scalars[e.met.cWakes], snap.Hists[e.met.hWakeEvents]; got != 3 || events.Count() != 3 || events.Sum() != 2 {
		t.Errorf("lb_wakes_total %d, lb_wake_events count %d sum %d, want 3, 3, 2", got, events.Count(), events.Sum())
	}
	if n, err := reactor.Read(clientR, buf); err != io.EOF {
		t.Errorf("client read %d, %v after the session ended, want io.EOF", n, err)
	}
}

// TestRelayParksPartialWrite: a client socket that takes only part of a
// relayed read gets the rest later, in order. What it refused parks in
// pending, the session stalls once (the backend fd leaves the epoll set),
// and the client's EPOLLOUT resumes it; the backend's EOF then completes
// it with every byte delivered. A second session whose client hangs up
// while bytes are pending fails with errClientGone.
func TestRelayParksPartialWrite(t *testing.T) {
	var done []SessionStats
	e := relayEngine(t, 1, &done)
	sh, err := newShard(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Poller.Close()
	stalls := func() uint64 { return e.met.reg.Snapshot(nil).Scalars[e.met.cStalls] }

	// A 16 KiB send buffer (the kernel doubles it) lets the client socket
	// take about 32 KiB of a 48 KiB read; once the client has read that,
	// the rest fits.
	s, backendW, clientR := relaySession(t, sh, 1)
	defer reactor.Close(clientR)
	if err := syscall.SetsockoptInt(s.cfd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 16<<10); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 48<<10)
	for i := range payload {
		payload[i] = byte(i * 7 / 5)
	}
	if n, err := reactor.Write(backendW, payload); n != len(payload) || err != nil {
		t.Fatalf("backend wrote %d, %v", n, err)
	}
	if err := reactor.Close(backendW); err != nil {
		t.Fatal(err)
	}
	var got []byte
	drain := func() {
		t.Helper()
		buf := make([]byte, 64<<10)
		for {
			n, err := reactor.Read(clientR, buf)
			if n == 0 || err == io.EOF {
				return
			}
			if err != nil {
				t.Fatalf("client read: %v", err)
			}
			got = append(got, buf[:n]...)
		}
	}

	sh.Wake(sh.Poller.Wait(), 2)
	drain()
	if len(got) == 0 || len(got) >= len(payload) {
		t.Fatalf("the client took %d of %d bytes, want part of them", len(got), len(payload))
	}
	if !s.stalled || len(got)+len(s.pending) != len(payload) {
		t.Fatalf("stalled %v with %d bytes pending after %d delivered, want the other %d parked",
			s.stalled, len(s.pending), len(got), len(payload)-len(got))
	}
	if n := stalls(); n != 1 {
		t.Fatalf("lb_relay_stalls_total %d after a short write, want 1", n)
	}

	// The client has read: EPOLLOUT resumes the session, which delivers
	// the rest; the backend's EOF, reported again once its fd is back in
	// the set, completes it.
	for now := int64(3); len(done) == 0; now++ {
		events := sh.Poller.Wait()
		if len(events) == 0 || now > 10 {
			t.Fatalf("wake %d: nothing ready, %d of %d bytes delivered, %d pending", now, len(got), len(payload), len(s.pending))
		}
		sh.Wake(events, now)
		drain()
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("the client got %d bytes, want the %d sent, in order", len(got), len(payload))
	}
	if done[0].Err != nil || done[0].Bytes != int64(len(payload)) {
		t.Fatalf("session ended %+v, want clean with %d bytes", done[0], len(payload))
	}
	if n := stalls(); n != 1 {
		t.Errorf("lb_relay_stalls_total %d after the resume, want still 1", n)
	}

	// Hang-up with bytes pending: the client abandoned the stream.
	s, backendW, clientR = relaySession(t, sh, 2)
	defer reactor.Close(backendW)
	if err := syscall.SetsockoptInt(s.cfd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 16<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := reactor.Write(backendW, payload); err != nil {
		t.Fatal(err)
	}
	sh.Wake(sh.Poller.Wait(), 20)
	if len(s.pending) == 0 {
		t.Fatal("the second session parked nothing")
	}
	if err := reactor.Close(clientR); err != nil {
		t.Fatal(err)
	}
	sh.Wake(sh.Poller.Wait(), 21)
	if len(done) != 2 || !errors.Is(done[1].Err, errClientGone) {
		t.Fatalf("after the hang-up: %+v, want the second session failed with errClientGone", done)
	}
	if sh.Table.Len() != 0 {
		t.Errorf("%d sessions still in the table", sh.Table.Len())
	}
}
