//go:build linux

package lb

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/reactor"
)

// TestRelayEndsCleanOnNextWake: a backend that sends its last bytes and
// its FIN together has them relayed in one wake and is retired clean on
// the next. The first wake returns once the refill has drained to the
// client, without a splice that would find the backend empty; the
// backend fd, readable at EOF, is reported again by the next wait, whose
// wake reads the EOF and completes the session. Pipes stand in for the
// two sockets: they splice like sockets, and closing the write end is
// the FIN.
func TestRelayEndsCleanOnNextWake(t *testing.T) {
	var done []SessionStats
	e := &Engine{
		cfg: Config{
			Backends:      []string{"test"},
			IdleTimeout:   -1,
			StallTimeout:  -1,
			OnSessionDone: func(st SessionStats) { done = append(done, st) },
		},
		base: time.Now(),
		quit: make(chan struct{}),
	}
	e.backends = []*backend{{idx: 0, addr: "test"}}
	e.met = newLBMetrics(e, 1, nil)
	e.recs = []*obs.FlightRecorder{obs.NewFlightRecorder(0), obs.NewFlightRecorder(0)}
	sh, err := newShard(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Poller.Close()
	bfd, backendW, err := reactor.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	clientR, cfd, err := reactor.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(clientR)
	s := &session{id: 1, bfd: bfd, cfd: cfd, backend: e.backends[0]}
	e.backends[0].active.Add(1)
	sh.Queue.Push(s)
	sh.Wake(nil, 1) // admit: the pipe pair, both fds armed
	if sh.Table.Len() != 1 {
		t.Fatal("the session was not admitted")
	}

	last := []byte("the last frame, then FIN")
	if _, err := syscall.Write(backendW, last); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Close(backendW); err != nil {
		t.Fatal(err)
	}
	wake := func(now int64) {
		t.Helper()
		events := sh.Poller.Wait()
		if len(events) != 1 || int(events[0].Fd) != bfd {
			t.Fatalf("wake at %d: wait reported %v, want the backend fd %d alone", now, events, bfd)
		}
		sh.Wake(events, now)
	}

	wake(2)
	buf := make([]byte, 64)
	if n, err := syscall.Read(clientR, buf); err != nil || string(buf[:n]) != string(last) {
		t.Fatalf("client read %q, %v after the first wake, want %q", buf[:n], err, last)
	}
	if len(done) != 0 || sh.Table.Len() != 1 {
		t.Fatalf("the first wake ended the session (%d done, table %d): it spliced past the refill", len(done), sh.Table.Len())
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
	if n, _ := syscall.Read(clientR, buf); n != 0 {
		t.Errorf("client read %d more bytes, want EOF", n)
	}
}
