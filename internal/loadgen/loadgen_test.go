package loadgen

import (
	"bytes"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/diag"
	"repro/internal/netstream"
	"repro/internal/serve"
	"repro/internal/trace"
)

// startServer runs a real serving engine on an ephemeral loopback port
// and returns its address.
func startServer(t *testing.T, frames int, step time.Duration, rateFactor float64) string {
	t.Helper()
	clip, err := trace.Generate(func() trace.GenConfig {
		cfg := trace.DefaultGenConfig()
		cfg.Frames = frames
		cfg.Seed = 1
		return cfg
	}())
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
		ln.Close()
		eng.Close()
	})
	return ln.Addr().String()
}

// collectRun drives one wave of n sessions with per-session digests and
// returns the stats indexed by session.
func collectRun(t *testing.T, addr string, shards, n int) []SessionStats {
	t.Helper()
	out := make([]SessionStats, n)
	var mu sync.Mutex
	eng, err := New(Config{
		Addrs:  []string{addr},
		Shards: shards,
		Delay:  8,
		Digest: true,
		OnSessionDone: func(st SessionStats) {
			mu.Lock()
			out[st.Index] = st
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rep, err := eng.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		for _, st := range out {
			if st.Err != nil {
				t.Logf("session %d (%s): %v", st.Index, st.Stage, st.Err)
			}
		}
		t.Fatalf("%d of %d sessions failed", rep.Failed, n)
	}
	return out
}

// TestShardCountInvariance: the number of reactor shards is a capacity
// knob, not a semantic one — every session must decode exactly the same
// message sequence (same slices, steps, offsets — hence same drops)
// whether one shard drains all sockets or four split them.
func TestShardCountInvariance(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("loadgen reactor requires linux")
	}
	// Under-provisioned (rate factor < 1) so the server's drop policy
	// actually sheds slices — the drop sequence is part of the digest.
	addr := startServer(t, 50, 2*time.Millisecond, 0.8)
	const n = 48
	one := collectRun(t, addr, 1, n)
	four := collectRun(t, addr, 4, n)
	for i := range one {
		if one[i].Digest != four[i].Digest {
			t.Errorf("session %d: digest %x with 1 shard, %x with 4", i, one[i].Digest, four[i].Digest)
		}
		if one[i].Played != four[i].Played || one[i].Incomplete != four[i].Incomplete ||
			one[i].Steps != four[i].Steps || one[i].Bytes != four[i].Bytes {
			t.Errorf("session %d: (played %d, incomplete %d, steps %d, bytes %d) vs (%d, %d, %d, %d)",
				i, one[i].Played, one[i].Incomplete, one[i].Steps, one[i].Bytes,
				four[i].Played, four[i].Incomplete, four[i].Steps, four[i].Bytes)
		}
	}
	// Same cohort, same schedule: every session sees the same stream.
	for i := 1; i < n; i++ {
		if one[i].Digest != one[0].Digest {
			t.Errorf("session %d: digest %x differs from session 0's %x within one run", i, one[i].Digest, one[0].Digest)
		}
	}
}

// TestStageFailureAccounting injects failures at each stage of a
// session's life and checks they land in the right counters.
func TestStageFailureAccounting(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("loadgen reactor requires linux")
	}
	countStages := func(t *testing.T, addr string, n int) (map[string]int, Report) {
		t.Helper()
		stages := map[string]int{}
		var mu sync.Mutex
		eng, err := New(Config{
			Addrs:       []string{addr},
			Shards:      1,
			Delay:       4,
			IdleTimeout: 2 * time.Second,
			OnSessionDone: func(st SessionStats) {
				mu.Lock()
				stages[st.Stage]++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		rep, err := eng.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		return stages, rep
	}

	t.Run("dial", func(t *testing.T) {
		// A listener opened and immediately closed: connections refused.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		stages, rep := countStages(t, addr, 6)
		if rep.DialFailed != 6 || stages[StageDial] != 6 || rep.Completed != 0 {
			t.Fatalf("want 6 dial failures, got report %+v stages %v", rep, stages)
		}
	})

	t.Run("handshake", func(t *testing.T) {
		// Accept then close before answering the hello.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				c.Close()
			}
		}()
		stages, rep := countStages(t, ln.Addr().String(), 6)
		if rep.HandshakeFailed != 6 || stages[StageHandshake] != 6 || rep.Completed != 0 {
			t.Fatalf("want 6 handshake failures, got report %+v stages %v", rep, stages)
		}
	})

	t.Run("accept above the asked delay", func(t *testing.T) {
		// The delay sizes the client's receive window, so an Accept that
		// raises the delay the Hello asked for ends the handshake.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func(c net.Conn) {
					defer c.Close()
					msg, err := netstream.ReadMsg(c)
					if err != nil || msg.Hello == nil {
						return
					}
					_ = netstream.WriteAccept(c, netstream.Accept{
						Rate: 10, Delay: msg.Hello.DesiredDelay + 1, ServerBuffer: 50, StepMicros: 1000,
					})
				}(c)
			}
		}()
		stages, rep := countStages(t, ln.Addr().String(), 6)
		if rep.HandshakeFailed != 6 || stages[StageHandshake] != 6 || rep.Completed != 0 {
			t.Fatalf("want 6 handshake failures, got report %+v stages %v", rep, stages)
		}
	})

	t.Run("mid-stream", func(t *testing.T) {
		// Complete the handshake, send a little data, hang up before End.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func(c net.Conn) {
					defer c.Close()
					if msg, err := netstream.ReadMsg(c); err != nil || msg.Hello == nil {
						return
					}
					_ = netstream.WriteAccept(c, netstream.Accept{
						Rate: 10, Delay: 4, ServerBuffer: 40, StepMicros: 1000,
					})
					for step := uint32(0); step < 3; step++ {
						_, _ = netstream.Msg{Data: &netstream.Data{
							SliceID: step, Arrival: step, Size: 4, Weight: 1,
							SendStep: step, Payload: []byte{1, 2, 3, 4},
						}}.WriteTo(c)
					}
					// No End: the close below is a mid-stream hangup.
				}(c)
			}
		}()
		stages, rep := countStages(t, ln.Addr().String(), 6)
		if rep.MidStreamFailed != 6 || stages[StageMidStream] != 6 || rep.Completed != 0 {
			t.Fatalf("want 6 mid-stream failures, got report %+v stages %v", rep, stages)
		}
	})
}

// startSilentServer accepts sessions on a loopback port, answers each
// Hello (delay 4) and then sends nothing until the test ends. It returns
// the address and the count of Hellos answered.
func startSilentServer(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold); _ = ln.Close() })
	var hellos atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if msg, err := netstream.ReadMsg(c); err != nil || msg.Hello == nil {
					return
				}
				_ = netstream.WriteAccept(c, netstream.Accept{Rate: 10, Delay: 4, ServerBuffer: 40, StepMicros: 1000})
				hellos.Add(1)
				<-hold
			}(c)
		}
	}()
	return ln.Addr().String(), &hellos
}

// TestCloseMidRunCountsEverySession: Close during a wave on a multi-shard
// engine still reports each of the wave's sessions once, as completed or
// failed at some stage, after an earlier wave left a tally on every shard.
func TestCloseMidRunCountsEverySession(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("loadgen reactor requires linux")
	}
	addr, hellos := startSilentServer(t)
	eng, err := New(Config{Addrs: []string{addr}, Shards: 4, Delay: 4, IdleTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const first, n = 8, 64
	if rep, err := eng.Run(first); err != nil || rep.MidStreamFailed != first {
		t.Fatalf("first wave: %+v, %v; want %d idle failures", rep, err, first)
	}
	type result struct {
		rep Report
		err error
	}
	res := make(chan result, 1)
	go func() {
		rep, err := eng.Run(n)
		res <- result{rep, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for hellos.Load() < first+n/2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	eng.Close()
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := r.rep.Completed + r.rep.Failed; got != n {
		t.Errorf("wave of %d reported %d sessions: %+v", n, got, r.rep)
	}
}

// TestRetireBeforeAdmitJoinsItsWave: a session Close retires while it is
// still queued, never admitted, counts in the wave that dialed it, also on
// a shard whose tally still holds an earlier wave.
func TestRetireBeforeAdmitJoinsItsWave(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("loadgen reactor requires linux")
	}
	eng := &Engine{base: time.Now(), wave: 2, done: make(chan struct{})}
	eng.remaining.Store(1)
	sh, err := newShard(eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Poller.Close()
	sh.wave, sh.tally = 1, tally{completed: 3}
	sh.Retire(&session{fd: -1, wave: 2, maxStep: -1}, errEngineClosed, 0)
	if sh.wave != 2 || sh.tally != (tally{midStreamFailed: 1}) {
		t.Errorf("shard counts wave %d with tally %+v; want wave 2 with the one failure", sh.wave, sh.tally)
	}
}

// TestIdleTimeoutRetiresSilentSession: a server that completes the
// handshake and then says nothing — connection open, no bytes — must not pin
// the wave: IdleTimeout retires each session mid-stream with the idle error,
// once, and its fd leaves the shard table.
func TestIdleTimeoutRetiresSilentSession(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("loadgen reactor requires linux")
	}
	addr, _ := startSilentServer(t)
	const n, idle = 3, 150 * time.Millisecond
	var mu sync.Mutex
	done := map[int][]SessionStats{}
	eng, err := New(Config{
		Addrs:       []string{addr},
		Shards:      1,
		Delay:       4,
		IdleTimeout: idle,
		OnSessionDone: func(st SessionStats) {
			mu.Lock()
			done[st.Index] = append(done[st.Index], st)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rep, err := eng.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MidStreamFailed != n || rep.Completed != 0 || rep.Elapsed < idle {
		t.Fatalf("want %d mid-stream failures no sooner than %v, got %+v", n, idle, rep)
	}
	for i := 0; i < n; i++ {
		if len(done[i]) != 1 {
			t.Fatalf("session %d reported done %d times", i, len(done[i]))
		}
		if st := done[i][0]; st.Stage != StageMidStream || !errors.Is(st.Err, errIdleTimeout) || st.Elapsed < idle {
			t.Errorf("session %d done with stage %q, err %v after %v; want an idle timeout", i, st.Stage, st.Err, st.Elapsed)
		}
	}
	// Run has returned, so the reactor only reads its (empty) table now.
	//smoothvet:transfer every session is done: the reactor no longer writes its table
	sh := eng.shards[0]
	if sh.Table.Len() != 0 {
		t.Errorf("%d sessions left in the shard table", sh.Table.Len())
	}
	for fd := 0; fd < 1<<12; fd++ {
		if _, ok := sh.Table.Lookup(fd); ok {
			t.Errorf("fd %d still maps to a session", fd)
		}
	}
}

// scrapeMetrics performs one GET /metrics against the generator's diag
// handler and returns the body.
func scrapeMetrics(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics returned %d", rec.Code)
	}
	return rec.Body.String()
}

// metricValue extracts the value of a plain `name value` sample from a
// Prometheus-text body (-1 when absent).
func metricValue(body, name string) int64 {
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// TestLoopbackCapacitySmoke runs a small end-to-end wave against a real
// serving engine — the verify.sh gate; LOADGEN_SMOKE overrides the
// session count for bigger manual runs. Mid-wave it scrapes the
// generator's /metrics through the diag handler and asserts the key
// series: the active-sessions gauge reaches the wave size, and the
// step-lag histogram and the reactor's wake pair (loadgen_wakes_total,
// loadgen_wake_events) are populated while traffic flows.
func TestLoopbackCapacitySmoke(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("loadgen reactor requires linux")
	}
	n := 256
	if env := os.Getenv("LOADGEN_SMOKE"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil || v < 1 {
			t.Fatalf("bad LOADGEN_SMOKE=%q", env)
		}
		n = v
	}
	// Scale the clip with the wave so every session is still streaming
	// when the last one dials in: the mid-wave gauge check below needs the
	// whole wave concurrently active, and a session lives ~frames·step.
	frames := 40 + n/4
	addr := startServer(t, frames, 4*time.Millisecond, 1.1)
	eng, err := New(Config{Addrs: []string{addr}, Delay: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	handler := diag.Handler(diag.Options{
		Service:   "smoothload",
		Registry:  eng.Obs(),
		Recorders: eng.FlightRecorders(),
	})

	type result struct {
		rep Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := eng.Run(n)
		done <- result{rep, err}
	}()

	// Poll /metrics while the wave is in flight: every session holds its
	// connection until the clip ends, so the active gauge must reach the
	// full wave size once dialing completes.
	sawFull := false
	sawLag := false
	sawWakes := false
	deadline := time.After(30 * time.Second)
	var rep Report
poll:
	for {
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatal(r.err)
			}
			rep = r.rep
			break poll
		case <-deadline:
			t.Fatalf("wave of %d did not finish (mid-wave: active=%v lag=%v)", n, sawFull, sawLag)
		case <-time.After(2 * time.Millisecond):
			body := scrapeMetrics(t, handler)
			if metricValue(body, "loadgen_sessions_active") == int64(n) {
				sawFull = true
			}
			if metricValue(body, "loadgen_step_lag_us_count") > 0 {
				sawLag = true
			}
			if metricValue(body, "loadgen_wakes_total") > 0 && metricValue(body, "loadgen_wake_events_count") > 0 {
				sawWakes = true
			}
		}
	}
	if rep.Completed != n || rep.Failed != 0 {
		t.Fatalf("wave of %d: %d completed, %d failed (%d dial, %d handshake, %d mid-stream)",
			n, rep.Completed, rep.Failed, rep.DialFailed, rep.HandshakeFailed, rep.MidStreamFailed)
	}
	if rep.Lag.Count() == 0 || rep.Played == 0 {
		t.Fatalf("no messages or playout recorded: lag n=%d played=%d", rep.Lag.Count(), rep.Played)
	}
	if rep.Bytes == 0 || rep.Dial.Count() != int64(n) {
		t.Fatalf("throughput/stage accounting empty: bytes=%d dials=%d", rep.Bytes, rep.Dial.Count())
	}
	if !sawFull {
		t.Errorf("mid-wave scrape never saw loadgen_sessions_active = %d", n)
	}
	if !sawLag {
		t.Errorf("mid-wave scrape never saw a populated loadgen_step_lag_us histogram")
	}
	if !sawWakes {
		t.Errorf("mid-wave scrape never saw loadgen_wakes_total and loadgen_wake_events_count above zero")
	}

	// Post-wave scrape: cumulative counters cover the whole wave and the
	// active gauge drains back to zero. Run returns when the last session
	// retires, which can be a beat ahead of that reactor wake's trailing
	// Publish — poll briefly instead of asserting one scrape.
	var body string
	for waited := 0; ; waited++ {
		body = scrapeMetrics(t, handler)
		if metricValue(body, "loadgen_sessions_active") == 0 &&
			metricValue(body, "loadgen_sessions_completed_total") == int64(n) {
			break
		}
		if waited > 200 {
			break // fall through to the assertions' failure output
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := metricValue(body, "loadgen_sessions_admitted_total"); got != int64(n) {
		t.Errorf("post-wave admitted_total = %d, want %d", got, n)
	}
	if got := metricValue(body, "loadgen_sessions_completed_total"); got != int64(n) {
		t.Errorf("post-wave completed_total = %d, want %d", got, n)
	}
	if got := metricValue(body, "loadgen_sessions_active"); got != 0 {
		t.Errorf("post-wave active gauge = %d, want 0", got)
	}
	t.Logf("%d sessions in %v (%.0f sessions/s), lag p50=%dµs p99=%dµs p99.9=%dµs",
		n, rep.Elapsed.Round(time.Millisecond), float64(rep.Completed)/rep.Elapsed.Seconds(),
		rep.Lag.Quantile(0.5), rep.Lag.Quantile(0.99), rep.Lag.Quantile(0.999))
}

// TestRunErrors: wave-size validation and closed-engine behavior.
func TestRunErrors(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("loadgen reactor requires linux")
	}
	eng, err := New(Config{Addrs: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(0); err == nil {
		t.Error("Run(0) accepted")
	}
	eng.Close()
	if _, err := eng.Run(1); err == nil {
		t.Error("Run on a closed engine accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New without addresses accepted")
	}
}

// TestFeedRejectsBadSlice: a data message no sender emits fails the session
// with netstream.ErrBadSlice before it reaches the receive window — a frame
// number from the wire must not size the window's ring (2^30 frames would be
// a 24 GB allocation).
func TestFeedRejectsBadSlice(t *testing.T) {
	sh := newShardCore(&Engine{cfg: Config{}, base: time.Now()}, 0)
	for _, d := range []netstream.Data{
		{SliceID: 1, Arrival: 1 << 30, SendStep: 2, Size: 1, Payload: []byte{1}},
		{SliceID: 1, Size: 0},
		{SliceID: 1, Size: 2, Offset: 2, Payload: []byte{1}},
	} {
		var wire bytes.Buffer
		if _, err := (netstream.Msg{Data: &d}).WriteTo(&wire); err != nil {
			t.Fatal(err)
		}
		s := &session{fd: -1, delay: 4, stepNanos: 1000, maxStep: -1}
		s.win.Reset(4, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := sh.feed(s, wire.Bytes(), 0)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, netstream.ErrBadSlice) {
			t.Errorf("%+v: err = %v, want ErrBadSlice", d, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%+v: rejecting it allocated %d bytes", d, grew)
		}
	}
}

// TestStripeAssignmentDeterministic: sessions stripe across Config.Addrs
// by session index (idx % len(Addrs)), and the assignment is a pure
// function of the index — identical on every wave of the same engine and
// across engines. Fleet ramps (smoothload -ramp -connect a,b) depend on
// this: wave k+1 re-measures the same server mix as wave k, so a lag
// regression means the servers changed, not the stripe. Two backends
// serving distinguishable clips make the assignment visible in the
// per-session digests.
func TestStripeAssignmentDeterministic(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("loadgen reactor requires linux")
	}
	// Different frame counts: the clips differ, so the two backends
	// produce different digests.
	addrs := []string{
		startServer(t, 30, 2*time.Millisecond, 1.1),
		startServer(t, 44, 2*time.Millisecond, 1.1),
	}
	const n = 24
	wave := func(eng *Engine) []uint64 {
		t.Helper()
		digests := make([]uint64, n)
		var mu sync.Mutex
		eng.cfg.OnSessionDone = func(st SessionStats) {
			mu.Lock()
			digests[st.Index] = st.Digest
			mu.Unlock()
		}
		rep, err := eng.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%d of %d sessions failed", rep.Failed, n)
		}
		return digests
	}
	eng, err := New(Config{Addrs: addrs, Shards: 2, Delay: 8, Digest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	first := wave(eng)
	if first[0] == first[1] {
		t.Fatalf("backends are indistinguishable (digest %x); the stripe cannot be observed", first[0])
	}
	// The assignment is idx % len(addrs): every session's digest matches
	// the reference digest of its stripe.
	for i, d := range first {
		if want := first[i%len(addrs)]; d != want {
			t.Errorf("session %d: digest %x, want stripe %d digest %x", i, d, i%len(addrs), want)
		}
	}
	// Same engine, next wave: identical assignment.
	second := wave(eng)
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("session %d: digest %x on wave 1, %x on wave 2 — stripe moved between waves", i, first[i], second[i])
		}
	}
	// Fresh engine (a new ramp step): still identical.
	eng2, err := New(Config{Addrs: addrs, Shards: 1, Delay: 8, Digest: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	third := wave(eng2)
	for i := range first {
		if first[i] != third[i] {
			t.Errorf("session %d: digest %x from engine 1, %x from engine 2", i, first[i], third[i])
		}
	}
}
