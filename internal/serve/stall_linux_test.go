//go:build linux

package serve

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestStalledClientDoesNotStallItsShard — one client on a shard stops
// reading (small receive buffer on its side, small send buffer on the
// server's) while others are served beside it. A slow client must not
// stall its shard: the others get every byte of the plan with no step
// forgiven, and the stalled session is retired stalled-out D+1 ticks
// after its socket first refused a flush.
func TestStalledClientDoesNotStallItsShard(t *testing.T) {
	const (
		others = 8
		delay  = 8
		step   = 10 * time.Millisecond
	)
	// Frames ten times the test clips' size fill the stalled socket's
	// buffers within a few dozen steps.
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 150
	cfg.MeanI, cfg.MeanP, cfg.MeanB, cfg.MaxFrame = 880, 540, 220, 1200
	clip, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ended := map[string]error{}
	done := make(chan struct{}, others+1)
	eng, err := New(clip, trace.PaperWeights(), Config{
		Rate: 2 * int(clip.AverageRate()), Shards: 1, StepDuration: step, MaxDelay: delay,
		OnSessionDone: func(st SessionStats, err error) {
			mu.Lock()
			ended[st.Remote] = err
			mu.Unlock()
			done <- struct{}{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hello := func(conn net.Conn) netstream.Accept {
		t.Helper()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := netstream.WriteHello(conn, netstream.Hello{DesiredDelay: delay}); err != nil {
			t.Fatal(err)
		}
		msg, err := netstream.ReadMsg(conn)
		if err != nil || msg.Accept == nil {
			t.Fatalf("accept: %+v, %v", msg, err)
		}
		return *msg.Accept
	}

	// The stalled client: handshake, then never read again.
	d := net.Dialer{Control: func(_, _ string, rc syscall.RawConn) error {
		var serr error
		err := rc.Control(func(fd uintptr) { serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 1) })
		return errors.Join(err, serr)
	}}
	stalled, err := d.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	sconn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if err := sconn.(*net.TCPConn).SetWriteBuffer(1); err != nil {
		t.Fatal(err)
	}
	handled := make(chan error, others+1)
	go func() { handled <- eng.Handle(sconn) }()
	acc := hello(stalled)
	c, err := eng.cohortFor(int(acc.Delay), int(acc.ServerBuffer))
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { handled <- eng.Handle(conn) }()
		}
	}()
	var wg sync.WaitGroup
	streams := make([][]byte, others)
	errs := make([]error, others)
	for i := range streams {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello(conn)
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[i], errs[i] = io.ReadAll(conn)
		}()
	}
	wg.Wait()
	for i := range streams {
		if errs[i] != nil {
			t.Fatalf("client %d: %v after %d bytes", i, errs[i], len(streams[i]))
		}
		if !bytes.Equal(streams[i], c.wire) {
			t.Fatalf("client %d read %d bytes, the plan has %d", i, len(streams[i]), c.WireBytes())
		}
	}
	for range others + 1 {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the stalled session was never retired")
		}
		if err := <-handled; err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	if err := ended[stalled.LocalAddr().String()]; err != errStalledOut {
		t.Errorf("the stalled session ended with %v, want %v", err, errStalledOut)
	}
	mu.Unlock()

	snap := eng.Obs().Snapshot(nil)
	if got := snap.Scalars[eng.met.cForgivenSteps]; got != 0 {
		t.Errorf("serve_forgiven_steps_total %d, want 0: a stalled client held the shard", got)
	}
	if got := snap.Scalars[eng.met.cStalledOut]; got != 1 {
		t.Errorf("serve_stalled_out_total %d, want 1", got)
	}
	// The stalled row's cursor stopped at the steps its last flush
	// committed, the tick t0 = base+steps-1 of its first short write; it
	// must be retired on tick t0+D+1.
	var admitted, stalledOut *obs.Event
	events := eng.FlightRecorders()[0].CopyInto(nil)
	for i := range events {
		if events[i].Kind == obs.EvStalledOut {
			stalledOut = &events[i]
		}
	}
	if stalledOut == nil {
		t.Fatal("no stalled-out event in the flight ring")
	}
	for i := range events {
		if events[i].Kind == obs.EvAdmit && events[i].Sess == stalledOut.Sess {
			admitted = &events[i]
		}
	}
	if admitted == nil {
		t.Fatal("no admit event for the stalled session")
	}
	ticks := (stalledOut.Tick - admitted.Tick) / int64(step) // retirement tick - base
	if since := ticks + 1 - stalledOut.Arg; since != delay+1 {
		if snap.Scalars[eng.met.cTickOverruns] == 0 || since < delay+1 {
			t.Errorf("retired stalled-out %d ticks after the first short write, want D+1 = %d", since, delay+1)
		}
	}
	t.Logf("stalled out after %d of %d steps, on tick %d of its schedule", stalledOut.Arg, c.Steps(), ticks)
	if stalledOut.Arg >= int64(c.Steps()) {
		t.Errorf("the stalled session committed all %d steps: its buffers never filled", stalledOut.Arg)
	}
}
