package lb

import (
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// startBackend runs a real serving engine on an ephemeral loopback port.
func startBackend(t *testing.T, frames int, step time.Duration, rateFactor float64) string {
	t.Helper()
	cfg := trace.DefaultGenConfig()
	cfg.Frames = frames
	cfg.Seed = 1
	clip, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := int(rateFactor * clip.AverageRate())
	if rate < 1 {
		rate = 1
	}
	eng, err := serve.New(clip, trace.PaperWeights(), serve.Config{
		Rate:         rate,
		Shards:       1,
		StepDuration: step,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { _ = eng.Handle(c) }(conn)
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		eng.Close()
	})
	return ln.Addr().String()
}

// startLB runs a front tier over the given backends on an ephemeral port.
func startLB(t *testing.T, cfg Config) (string, *Engine) {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { _ = eng.Handle(c) }(conn)
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		eng.Close()
	})
	return ln.Addr().String(), eng
}

// driveWave runs one loadgen wave of n digesting sessions against addr
// and returns the per-index stats.
func driveWave(t *testing.T, addr string, shards, n int) ([]loadgen.SessionStats, loadgen.Report) {
	t.Helper()
	out := make([]loadgen.SessionStats, n)
	var mu sync.Mutex
	gen, err := loadgen.New(loadgen.Config{
		Addrs:  []string{addr},
		Shards: shards,
		Delay:  8,
		Digest: true,
		OnSessionDone: func(st loadgen.SessionStats) {
			mu.Lock()
			out[st.Index] = st
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	rep, err := gen.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return out, rep
}

func counterValue(e *Engine, id obs.CounterID) uint64 {
	snap := e.Obs().Snapshot(nil)
	return snap.Scalars[id]
}

// TestFleetRelayBasic: sessions relayed through the tier complete and
// decode exactly like direct ones — every session plays the full clip
// with zero failures, and the tier's books balance.
func TestFleetRelayBasic(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relay reactor tests require linux")
	}
	backend := startBackend(t, 50, 2*time.Millisecond, 1.1)
	lbAddr, eng := startLB(t, Config{Backends: []string{backend}, Shards: 2})
	const n = 32
	out, rep := driveWave(t, lbAddr, 2, n)
	if rep.Failed != 0 {
		for _, st := range out {
			if st.Err != nil {
				t.Logf("session %d (%s): %v", st.Index, st.Stage, st.Err)
			}
		}
		t.Fatalf("%d of %d sessions failed through the tier", rep.Failed, n)
	}
	if !eng.Drain(5 * time.Second) {
		t.Fatalf("tier did not drain; %d still active", eng.Active())
	}
	if got := counterValue(eng, eng.met.cPlaced); got != n {
		t.Errorf("placements %d, want %d", got, n)
	}
	if got := counterValue(eng, eng.met.cCompleted); got != n {
		t.Errorf("completed relays %d, want %d", got, n)
	}
	if got := counterValue(eng, eng.met.cFailed); got != 0 {
		t.Errorf("failed relays %d, want 0", got)
	}
	// Direct comparison: the same wave straight at the backend must yield
	// identical digests — the tier is a pure relay.
	direct, drep := driveWave(t, backend, 2, n)
	if drep.Failed != 0 {
		t.Fatalf("%d of %d direct sessions failed", drep.Failed, n)
	}
	for i := range out {
		if out[i].Digest != direct[i].Digest {
			t.Errorf("session %d: digest %x through tier, %x direct", i, out[i].Digest, direct[i].Digest)
		}
	}
}

// TestLBShardCountInvariance: the tier's shard count is a capacity knob,
// not a semantic one — every client session decodes exactly the same
// message sequence whether one relay shard carries all sessions or four
// split them. Under-provisioned backends make the servers' drop
// sequences part of the digest.
func TestLBShardCountInvariance(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relay reactor tests require linux")
	}
	backends := []string{
		startBackend(t, 50, 2*time.Millisecond, 0.8),
		startBackend(t, 50, 2*time.Millisecond, 0.8),
	}
	const n = 48
	run := func(shards int) []loadgen.SessionStats {
		addr, eng := startLB(t, Config{Backends: backends, Shards: shards})
		out, rep := driveWave(t, addr, 2, n)
		if rep.Failed != 0 {
			t.Fatalf("%d of %d sessions failed with %d tier shards", rep.Failed, n, shards)
		}
		if !eng.Drain(5 * time.Second) {
			t.Fatalf("tier (%d shards) did not drain", shards)
		}
		return out
	}
	one := run(1)
	four := run(4)
	for i := range one {
		if one[i].Digest != four[i].Digest {
			t.Errorf("session %d: digest %x with 1 tier shard, %x with 4", i, one[i].Digest, four[i].Digest)
		}
		if one[i].Played != four[i].Played || one[i].Incomplete != four[i].Incomplete {
			t.Errorf("session %d: played/incomplete %d/%d with 1 shard, %d/%d with 4",
				i, one[i].Played, one[i].Incomplete, four[i].Played, four[i].Incomplete)
		}
	}
}

// TestPlacerReplacesOnDialFailure: a dead backend is quarantined after
// its first failed dial and every session lands on the live one, with
// zero client-visible failures.
func TestPlacerReplacesOnDialFailure(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relay reactor tests require linux")
	}
	// A listener opened and closed immediately: its port refuses dials.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	_ = dead.Close()
	live := startBackend(t, 30, 2*time.Millisecond, 1.1)
	// The dead backend is index 0, so the deterministic tie-break sends
	// the first placement straight into the failure path.
	lbAddr, eng := startLB(t, Config{
		Backends:      []string{deadAddr, live},
		Shards:        1,
		ProbeInterval: time.Hour, // keep the dead backend quarantined for the test
	})
	const n = 16
	out, rep := driveWave(t, lbAddr, 1, n)
	if rep.Failed != 0 {
		for _, st := range out {
			if st.Err != nil {
				t.Logf("session %d (%s): %v", st.Index, st.Stage, st.Err)
			}
		}
		t.Fatalf("%d of %d sessions failed despite a live backend", rep.Failed, n)
	}
	if !eng.Drain(5 * time.Second) {
		t.Fatal("tier did not drain")
	}
	if got := counterValue(eng, eng.met.cReplaced); got < 1 {
		t.Errorf("replacements %d, want >= 1 (first placement hits the dead backend)", got)
	}
	if got := eng.backends[1].placed.Load(); got != n {
		t.Errorf("live backend placed %d, want all %d", got, n)
	}
}

// TestFleetSmoke is the env-scaled fleet end-to-end: a wave through the
// tier with a graceful backend drain landing mid-wave must finish with
// zero client-visible failures, and the drained backend must stop
// receiving placements (modulo placements already in flight). LB_SMOKE
// scales the wave (default 200).
func TestFleetSmoke(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relay reactor tests require linux")
	}
	n := 200
	if v := os.Getenv("LB_SMOKE"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 2 {
			t.Fatalf("LB_SMOKE=%q: want an integer >= 2", v)
		}
		n = parsed
	}
	backends := []string{
		startBackend(t, 40, 2*time.Millisecond, 1.1),
		startBackend(t, 40, 2*time.Millisecond, 1.1),
	}
	lbAddr, eng := startLB(t, Config{Backends: backends, Shards: 2})

	// Drain backend 1 once the wave is in flight. The waiter also bails
	// once every session has been placed: on a loaded host the whole wave
	// can finish between 1ms samples, and a drain after completion still
	// exercises the transition (the post-drain growth bound holds
	// trivially).
	drained := make(chan uint64, 1)
	go func() {
		for eng.Active() < n/4 && counterValue(eng, eng.met.cPlaced) < uint64(n) {
			time.Sleep(time.Millisecond)
		}
		if err := eng.DrainBackend(1); err != nil {
			t.Errorf("DrainBackend: %v", err)
		}
		drained <- eng.backends[1].placed.Load()
	}()

	out, rep := driveWave(t, lbAddr, 2, n)
	if rep.Failed != 0 {
		for _, st := range out {
			if st.Err != nil {
				t.Logf("session %d (%s): %v", st.Index, st.Stage, st.Err)
			}
		}
		t.Fatalf("%d of %d sessions failed across the drain", rep.Failed, n)
	}
	placedAtDrain := <-drained
	if !eng.Drain(10 * time.Second) {
		t.Fatalf("tier did not drain; %d still active", eng.Active())
	}
	// Placements already past the post-dial drain re-check may still land;
	// there are at most PlaceWorkers of those in flight at the drain
	// instant.
	workers := eng.cfg.PlaceWorkers
	if after := eng.backends[1].placed.Load(); after > placedAtDrain+uint64(workers) {
		t.Errorf("drained backend kept taking placements: %d at drain, %d after (allowance %d)",
			placedAtDrain, after, workers)
	}
	if got := counterValue(eng, eng.met.cDrains); got < 1 {
		t.Errorf("drain transitions %d, want >= 1", got)
	}
}

// TestHandleRejectsBadHello: a connection whose first bytes are not a
// Hello is a counted, closed-connection rejection, not a hang.
func TestHandleRejectsBadHello(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relay reactor tests require linux")
	}
	backend := startBackend(t, 20, 2*time.Millisecond, 1.1)
	lbAddr, eng := startLB(t, Config{Backends: []string{backend}, Shards: 1, HandshakeTimeout: 500 * time.Millisecond})
	conn, err := net.Dial("tcp", lbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("not a netstream hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("tier answered a garbage hello instead of closing")
	}
	deadline := time.Now().Add(5 * time.Second)
	for counterValue(eng, eng.met.cRejected) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejection was never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startFakeBackend is a fake smoothd that answers the handshake and then
// hands the connection to stream; the connection closes when stream returns.
func startFakeBackend(t *testing.T, stream func(c net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := netstream.ReadMsg(c); err != nil {
					return
				}
				acc := netstream.Accept{Rate: 1, Delay: 1, ServerBuffer: 1, StepMicros: 1000}
				_ = c.SetWriteDeadline(time.Now().Add(5 * time.Second))
				if _, err := (netstream.Msg{Accept: &acc}).WriteTo(c); err != nil {
					return
				}
				stream(c)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestBackendAcceptAboveAskedDelayFailsPlacement: a backend whose Accept
// raises the delay the client's Hello asked for fails the placement, and
// that Accept never reaches the client — the delay sizes the client's
// receive window.
func TestBackendAcceptAboveAskedDelayFailsPlacement(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relay reactor tests require linux")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				msg, err := netstream.ReadMsg(c)
				if err != nil || msg.Hello == nil {
					return
				}
				acc := netstream.Accept{Rate: 1, Delay: msg.Hello.DesiredDelay + 1, ServerBuffer: 1, StepMicros: 1000}
				_, _ = (netstream.Msg{Accept: &acc}).WriteTo(c)
			}(conn)
		}
	}()
	done := make(chan SessionStats, 1)
	lbAddr, eng := startLB(t, Config{
		Backends:      []string{ln.Addr().String()},
		Shards:        1,
		ProbeInterval: 10 * time.Millisecond,
		OnSessionDone: func(st SessionStats) { done <- st },
	})
	conn, err := net.Dial("tcp", lbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello := netstream.Hello{ClientBuffer: 1024, DesiredDelay: 8}
	if _, err := (netstream.Msg{Hello: &hello}).WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	if msg, err := netstream.ReadMsg(conn); err == nil {
		t.Fatalf("the client was answered %+v", msg)
	}
	if st := <-done; st.Err == nil {
		t.Fatal("the session did not fail")
	}
	if failed, placed := counterValue(eng, eng.met.cPlaceFailed), counterValue(eng, eng.met.cPlaced); failed != 1 || placed != 0 {
		t.Errorf("placement failures %d, placements %d; want 1, 0", failed, placed)
	}
}

// startFloodBackend streams junk as fast as the socket accepts it — the
// fastest way to fill a non-reading client's buffers and force a relay
// stall.
func startFloodBackend(t *testing.T) string {
	return startFakeBackend(t, func(c net.Conn) {
		junk := make([]byte, 64<<10)
		for {
			_ = c.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Write(junk); err != nil {
				return
			}
		}
	})
}

// tableEmpty reports whether no session and no fd is left in any shard's
// table. The shard goroutines only read an empty table, so looking from the
// test goroutine is safe once every session has been reported done.
func tableEmpty(e *Engine) bool {
	//smoothvet:transfer every session is done: the relay goroutines no longer write their tables
	for _, sh := range e.shards {
		if sh.Table.Len() != 0 {
			return false
		}
		for fd := 0; fd < 1<<12; fd++ {
			if _, ok := sh.Table.Lookup(fd); ok {
				return false
			}
		}
	}
	return true
}

// TestIdleTimeoutRetiresSilentBackend: a backend that starts the stream and
// then says nothing — connection open, no bytes — must not pin the session:
// IdleTimeout retires it with the idle error, once, its fds leave the shard
// table, and the client sees the close.
func TestIdleTimeoutRetiresSilentBackend(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relay reactor tests require linux")
	}
	const sent = 4096
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	backend := startFakeBackend(t, func(c net.Conn) {
		_ = c.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Write(make([]byte, sent)); err == nil {
			<-hold
		}
	})
	done := make(chan SessionStats, 2)
	const idle = 150 * time.Millisecond
	lbAddr, eng := startLB(t, Config{
		Backends:      []string{backend},
		Shards:        1,
		IdleTimeout:   idle,
		StallTimeout:  -1,
		OnSessionDone: func(st SessionStats) { done <- st },
	})
	conn, err := net.Dial("tcp", lbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	hello := netstream.Hello{ClientBuffer: 1024, DesiredDelay: 8}
	if _, err := (netstream.Msg{Hello: &hello}).WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := netstream.ReadMsg(conn); err != nil {
		t.Fatalf("reading accept: %v", err)
	}
	// Everything the backend sent arrives, then the tier hangs up.
	got, err := io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("the tier never closed the client after %d bytes", got)
	}
	if got != sent {
		t.Errorf("client received %d bytes, backend sent %d", got, sent)
	}
	if waited := time.Since(start); waited < idle {
		t.Errorf("session retired after %v, before the %v idle limit", waited, idle)
	}
	st := <-done
	if !errors.Is(st.Err, errIdleTimeout) || st.Bytes != sent {
		t.Errorf("session done with err %v, %d bytes; want %v, %d", st.Err, st.Bytes, errIdleTimeout, sent)
	}
	if eng.Active() != 0 || !tableEmpty(eng) {
		t.Errorf("after the idle retirement: %d active, table empty %v", eng.Active(), tableEmpty(eng))
	}
	select {
	case again := <-done:
		t.Errorf("OnSessionDone fired twice: %+v", again)
	case <-time.After(3 * idle):
	}
	if got := counterValue(eng, eng.met.cFailed); got != 1 {
		t.Errorf("lb_sessions_failed_total %d, want 1", got)
	}
}

// capConn holds Handle at the last call it makes on the connection before
// it tests the session cap — clearing the hello read deadline — until every
// connection of the round has got there.
type capConn struct {
	net.Conn
	arrived *atomic.Int64
	want    int64
}

func (c *capConn) SetReadDeadline(t time.Time) error {
	if t.IsZero() {
		c.arrived.Add(1)
		for c.arrived.Load() < c.want {
			runtime.Gosched()
		}
	}
	return c.Conn.SetReadDeadline(t)
}

// TestMaxSessionsHoldsAcrossConcurrentHellos — k connections whose hellos
// are all read before any reaches the cap test, then released into it
// together, under a cap of one and a backend that never answers (so the
// admitted session keeps its slot): one is admitted, the rest are rejected
// and counted, and the count of active sessions returns to zero. The cap
// test and the slot reservation used to be two steps with no call on the
// connection between them, so the old race is narrow: each round hits it
// only if two Handle goroutines run the two steps on two CPUs at once,
// hence the rounds.
func TestMaxSessionsHoldsAcrossConcurrentHellos(t *testing.T) {
	const k, rounds = 4, 40
	for round := 0; round < rounds; round++ {
		// A listener nobody accepts on: the placer's dial completes in the
		// backlog, its hello is buffered and no accept ever comes back.
		silent, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(Config{Backends: []string{silent.Addr().String()}, Shards: 1, PlaceWorkers: 1, MaxSessions: 1})
		if err != nil {
			t.Fatal(err)
		}
		var arrived atomic.Int64
		handled := make(chan error, k)
		for i := 0; i < k; i++ {
			server, client := net.Pipe()
			go func() { handled <- eng.Handle(&capConn{Conn: server, arrived: &arrived, want: k}) }()
			go func() {
				_ = netstream.WriteHello(client, netstream.Hello{ClientBuffer: 1024, DesiredDelay: 8})
				_, _ = io.Copy(io.Discard, client) // until the tier closes it
			}()
		}
		admitted := 0
		for i := 0; i < k; i++ {
			if err := <-handled; err == nil {
				admitted++
			} else if !errors.Is(err, errSessionCap) {
				t.Fatalf("round %d: rejected with %v", round, err)
			}
		}
		if admitted != 1 {
			t.Fatalf("round %d: %d of %d concurrent sessions admitted under a cap of 1", round, admitted, k)
		}
		if got := counterValue(eng, eng.met.cRejected); got != k-1 {
			t.Fatalf("round %d: lb_sessions_rejected_total %d, want %d", round, got, k-1)
		}
		_ = silent.Close() // resets the backlog, so Close does not wait out a handshake
		eng.Close()
		if got := eng.Active(); got != 0 {
			t.Fatalf("round %d: %d sessions active after Close", round, got)
		}
	}
}

// TestCloseFailsSessionsWaitingForASlot: with PlaceWorkers 1 and a backend
// that never answers, one placement holds the only slot mid-handshake and
// the other admitted sessions wait for it. Close must fail every waiter
// at once, without waiting for the slot, and each admitted session exactly
// once; the holder fails when its handshake does.
func TestCloseFailsSessionsWaitingForASlot(t *testing.T) {
	const waiting = 3
	// A listener nobody accepts on: the placer's dial completes in the
	// backlog, its hello is buffered and no accept ever comes back.
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	var done atomic.Int64
	eng, err := New(Config{
		Backends:      []string{silent.Addr().String()},
		Shards:        1,
		PlaceWorkers:  1,
		OnSessionDone: func(SessionStats) { done.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	var closeOnce sync.Once
	closeEng := func() { closeOnce.Do(func() { go func() { eng.Close(); close(closed) }() }) }
	defer func() {
		_ = silent.Close() // ends the held handshake
		closeEng()
		<-closed
	}()
	admit := func() {
		t.Helper()
		server, client := net.Pipe()
		go func() {
			_ = netstream.WriteHello(client, netstream.Hello{ClientBuffer: 1024, DesiredDelay: 8})
			_, _ = io.Copy(io.Discard, client) // until the tier closes it
			_ = client.Close()
		}()
		if err := eng.Handle(server); err != nil {
			t.Fatalf("admit: %v", err)
		}
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	admit()
	waitFor("the first placement to dial", func() bool { return eng.backends[0].active.Load() == 1 })
	for i := 0; i < waiting; i++ {
		admit()
	}
	closeEng()
	waitFor("Close to fail the waiting sessions", func() bool { return done.Load() == waiting })
	if got := eng.backends[0].active.Load(); got != 1 {
		t.Fatalf("the slot holder left its handshake early (backend active %d)", got)
	}
	_ = silent.Close()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned once the held handshake failed")
	}
	if got := done.Load(); got != waiting+1 {
		t.Errorf("OnSessionDone fired %d times for %d admitted sessions", got, waiting+1)
	}
	if got := eng.Active(); got != 0 {
		t.Errorf("active sessions %d after Close, want 0", got)
	}
}

// TestStallTimeoutRetiresStalledSession: a client that stops reading
// while the backend keeps sending must be retired within StallTimeout.
// Regression: level-triggered backend readability used to re-enter relay
// while the session was parked on EPOLLOUT, re-stalling it every wake —
// which reset the stall clock (so the timeout never fired) and inflated
// the stall counter. The counter pinning to exactly 1 is the proof the
// re-entry is gone.
func TestStallTimeoutRetiresStalledSession(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relay reactor tests require linux")
	}
	backend := startFloodBackend(t)
	lbAddr, eng := startLB(t, Config{
		Backends:     []string{backend},
		Shards:       1,
		StallTimeout: 200 * time.Millisecond,
		IdleTimeout:  -1,
	})
	conn, err := net.Dial("tcp", lbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello := netstream.Hello{ClientBuffer: 1024, DesiredDelay: 8}
	if _, err := (netstream.Msg{Hello: &hello}).WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := netstream.ReadMsg(conn); err != nil {
		t.Fatalf("reading accept: %v", err)
	}
	// Stop reading; the flood fills both socket buffers and pending, the
	// relay stalls once, and StallTimeout must retire the session even
	// though this conn stays open.
	deadline := time.Now().Add(5 * time.Second)
	for eng.Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled session never retired; %d still active", eng.Active())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := counterValue(eng, eng.met.cFailed); got != 1 {
		t.Errorf("failed relays %d, want 1 (stall timeout)", got)
	}
	if got := counterValue(eng, eng.met.cStalls); got != 1 {
		t.Errorf("stall count %d, want exactly 1: re-stalling a parked session resets its clock", got)
	}
}

// TestHandleCloseRaceLeaksNothing: Close can run to its end while a
// Handle goroutine is still blocked in its hello read; when that Handle
// then admits the session, it must see the race and fail the session
// itself rather than leak it (conn open, active pinned, OnSessionDone
// never fired).
func TestHandleCloseRaceLeaksNothing(t *testing.T) {
	var done atomic.Int64
	eng, err := New(Config{
		Backends:      []string{"127.0.0.1:1"},
		Shards:        1,
		OnSessionDone: func(SessionStats) { done.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	handleErr := make(chan error, 1)
	go func() { handleErr <- eng.Handle(server) }()
	// Let Handle pass its closing pre-check and block in the hello read,
	// then run the full Close — it waits for every placement it did not
	// prevent before the hello ever arrives.
	time.Sleep(50 * time.Millisecond)
	eng.Close()
	hello := netstream.Hello{ClientBuffer: 1024, DesiredDelay: 8}
	if _, err := (netstream.Msg{Hello: &hello}).WriteTo(client); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-handleErr:
		if !errors.Is(err, errEngineClosed) {
			t.Errorf("Handle returned %v, want errEngineClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Handle never returned after Close")
	}
	if got := eng.Active(); got != 0 {
		t.Errorf("active sessions %d after Close, want 0 (leaked by the race)", got)
	}
	if got := done.Load(); got != 1 {
		t.Errorf("OnSessionDone fired %d times, want 1", got)
	}
}
