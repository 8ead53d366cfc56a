//go:build linux

package lb

import (
	"net"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/trace"
)

// awaitFds waits for the descriptor count to return to want: sessions on
// the other side of a socket retire on their own goroutines, a little
// after the wave that ended them.
func awaitFds(t *testing.T, wave string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for got := leakcheck.OpenFds(); got != want; got = leakcheck.OpenFds() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d fds open after the wave, %d before", wave, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWavesReturnEveryFd — every fd a session takes is returned: a
// loadgen → serve wave cut off by the serving engine's Close mid-stream,
// and a loadgen → lb → 2 × serve wave run to the end, each leave the
// process with as many descriptors open as before the wave. While the
// tier wave is live, each session holds at most four: loadgen's socket,
// lb's client and backend sockets, and serve's socket.
func TestWavesReturnEveryFd(t *testing.T) {
	const n = 64
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 400
	clip, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(clip, trace.PaperWeights(), serve.Config{
		Rate: 2 * int(clip.AverageRate()), Shards: 2, StepDuration: 5 * time.Millisecond,
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
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _ = eng.Handle(conn) }()
		}
	}()
	gen, err := loadgen.New(loadgen.Config{Addrs: []string{ln.Addr().String()}, Shards: 2, Delay: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()

	before := leakcheck.OpenFds()
	reps := make(chan loadgen.Report, 1)
	go func() {
		rep, err := gen.Run(n)
		if err != nil {
			t.Error(err)
		}
		reps <- rep
	}()
	for deadline := time.Now().Add(10 * time.Second); eng.ActiveSessions() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d sessions registered", eng.ActiveSessions(), n)
		}
	}
	eng.Close()
	if rep := <-reps; rep.MidStreamFailed != n {
		t.Fatalf("%d of %d sessions cut off mid-stream by Close, want all (%d completed)", rep.MidStreamFailed, n, rep.Completed)
	}
	awaitFds(t, "loadgen → serve, aborted", before)

	backends := []string{
		startBackend(t, 60, 5*time.Millisecond, 1.1),
		startBackend(t, 60, 5*time.Millisecond, 1.1),
	}
	addr, front := startLB(t, Config{Backends: backends, Shards: 2})
	tierGen, err := loadgen.New(loadgen.Config{Addrs: []string{addr}, Shards: 2, Delay: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer tierGen.Close()
	before = leakcheck.OpenFds()
	go func() {
		rep, err := tierGen.Run(n)
		if err != nil {
			t.Error(err)
		}
		reps <- rep
	}()
	for deadline := time.Now().Add(10 * time.Second); counterValue(front, front.met.cRelayed) < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d sessions relayed", counterValue(front, front.met.cRelayed), n)
		}
	}
	// A handshake's socket is duplicated for a moment while it is adopted;
	// a few samples see past that.
	live := leakcheck.OpenFds() - before
	for tries := 0; live > 4*n && tries < 20; tries++ {
		time.Sleep(time.Millisecond)
		live = leakcheck.OpenFds() - before
	}
	if ended := counterValue(front, front.met.cCompleted) + counterValue(front, front.met.cFailed); ended > 0 {
		t.Fatalf("%d sessions ended before the mid-wave count", ended)
	}
	if live > 4*n {
		t.Errorf("%d live tier sessions hold %d descriptors, want at most 4 each (%d)", n, live, 4*n)
	}
	if rep := <-reps; rep.Completed != n {
		t.Fatalf("%d of %d sessions completed through the tier", rep.Completed, n)
	}
	if !front.Drain(5 * time.Second) {
		t.Fatalf("tier did not drain; %d still active", front.Active())
	}
	awaitFds(t, "loadgen → lb → 2 × serve", before)
}
