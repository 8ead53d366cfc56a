package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/netstream"
	"repro/internal/trace"
)

// recWriter keeps every Write apart, so a test sees the write boundaries
// the shard chose as well as the bytes.
type recWriter struct {
	buf   []byte
	sizes []int
}

func (w *recWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

func (w *recWriter) Close() error { return nil }

// writeLoad decodes the data messages of one write and returns how many
// distinct send steps and how many payload bytes it carries.
func writeLoad(t *testing.T, p []byte) (steps, payload int) {
	t.Helper()
	dec := netstream.NewDecoder(bytes.NewReader(p))
	lastStep := -1
	for {
		m, err := dec.Next()
		if err == io.EOF {
			return steps, payload
		}
		if err != nil {
			t.Fatalf("a write does not hold whole messages: %v", err)
		}
		if m.End {
			continue
		}
		if s := int(m.Data.SendStep); s != lastStep {
			steps++
			lastStep = s
		}
		payload += len(m.Data.Payload)
	}
}

// propSession is the test's own account of one session under the catch-up
// rule, kept apart from the engine's arithmetic: at a tick the session is
// owed every step due since admission that was neither sent nor forgiven.
type propSession struct {
	name     string
	w        *recWriter
	c        *Cohort // the plan the stream must equal
	delay    int
	admitted int64
	sent     int64
	forgiven int64
	done     bool
	ends     int
	stats    SessionStats
}

// TestCatchUpProperty drives shard.step with a seeded fake clock whose
// ticks skip ahead by random gaps and checks every session against the
// one-step-per-tick stream.
func TestCatchUpProperty(t *testing.T) {
	clip := testClip(t, 40)
	delays := []int{2, 4, 8}
	const sessions = 12
	// What the random schedules reached, over all seeds: the cases the
	// property is about must not be skipped by chance.
	var gapWhileAdmitting, gapOnFinalStep, forgave, burstFull bool

	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Below the average rate the smoothing buffer sheds slices, so
		// Dropped is checked against something; above it, steps are short.
		rate := int(clip.AverageRate() * []float64{0.8, 2}[seed%2])
		byName := map[string]*propSession{}
		var all []*propSession
		eng, err := newEngine(clip, trace.PaperWeights(), Config{
			Rate: rate, Shards: 1, StepDuration: time.Millisecond, MaxDelay: 16,
			OnSessionDone: func(st SessionStats, err error) {
				if err != nil {
					t.Errorf("session %s failed: %v", st.Remote, err)
				}
				s := byName[st.Remote]
				s.ends++
				s.stats = st
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		//smoothvet:transfer newEngine starts no shard clock: the test drives it
		sh := eng.shards[0]
		enqueue := func(i int) *propSession {
			d := delays[rng.Intn(len(delays))]
			c, err := eng.cohortFor(d, d*rate)
			if err != nil {
				t.Fatal(err)
			}
			s := &propSession{name: fmt.Sprintf("s%d", i), w: &recWriter{}, delay: d, c: c}
			byName[s.name] = s
			all = append(all, s)
			eng.active.Add(1)
			eng.sessWG.Add(1)
			sh.queue.Push(cohortRow{cohort: c, conn: s.w, remote: s.name})
			return s
		}

		var live []*propSession
		var tick, wantCatchup, wantForgiven int64
		queued := 0
		for queued < sessions || len(live) > 0 {
			var fresh []*propSession
			for n := rng.Intn(3); n > 0 && queued < sessions; n-- {
				fresh = append(fresh, enqueue(queued))
				queued++
			}
			gap := int64(0)
			if rng.Intn(10) < 4 {
				gap = 1 + rng.Int63n(3*8)
			}
			tick += 1 + gap
			for _, s := range fresh {
				s.admitted = tick
			}
			if gap > 0 && len(fresh) > 0 && len(live) > 0 {
				gapWhileAdmitting = true
			}
			live = append(live, fresh...)
			before := make([]int, len(live))
			for i, s := range live {
				before[i] = len(s.w.sizes)
			}
			sh.step(tick)

			next := live[:0]
			for i, s := range live {
				owed := tick - s.admitted + 1 - s.sent - s.forgiven
				n := min(owed, int64(s.delay))
				slid := owed - n
				if left := int64(s.c.Steps()) - s.sent; n >= left {
					n, slid, s.done = left, 0, true
					gapOnFinalStep = gapOnFinalStep || owed > 1
				}
				forgave = forgave || slid > 0
				burstFull = burstFull || n == int64(s.delay)
				if got, want := s.w.buf[s.c.off[s.sent]:], s.c.wire[s.c.off[s.sent]:s.c.off[s.sent+n]]; !bytes.Equal(got, want) {
					t.Fatalf("seed %d %s tick %d: owed %d steps from %d, wrote %d bytes, want the %d bytes of %d steps",
						seed, s.name, tick, owed, s.sent, len(got), len(want), n)
				}
				writes := s.w.sizes[before[i]:]
				if len(writes) > 1 {
					t.Fatalf("seed %d %s tick %d: %d writes in one tick", seed, s.name, tick, len(writes))
				}
				s.sent += n
				s.forgiven += slid
				wantCatchup += n - 1
				wantForgiven += slid
				if s.done != (s.ends == 1) {
					t.Fatalf("seed %d %s tick %d: done %v but ended %d times", seed, s.name, tick, s.done, s.ends)
				}
				if !s.done {
					// Sent and forgiven steps account for every due tick.
					if s.sent+s.forgiven != tick-s.admitted+1 {
						t.Fatalf("seed %d %s tick %d: sent %d + forgiven %d != %d ticks due", seed, s.name, tick, s.sent, s.forgiven, tick-s.admitted+1)
					}
					next = append(next, s)
				}
			}
			live = next
		}

		for _, s := range all {
			if !bytes.Equal(s.w.buf, s.c.wire) {
				t.Errorf("seed %d %s: stream of %d bytes differs from the plan's %d", seed, s.name, len(s.w.buf), len(s.c.wire))
			}
			if s.ends != 1 {
				t.Errorf("seed %d %s ended %d times", seed, s.name, s.ends)
			}
			// A one-step-per-tick run reports exactly the plan's totals
			// (TestCohortGoldenEquivalence ties them to a bare Sender's).
			if want := s.c.droppedThrough(int32(s.c.Steps())); s.stats.Steps != s.c.Steps() || s.stats.Dropped != want {
				t.Errorf("seed %d %s: steps %d dropped %d, want %d %d", seed, s.name, s.stats.Steps, s.stats.Dropped, s.c.Steps(), want)
			}
			off := 0
			for _, size := range s.w.sizes {
				steps, payload := writeLoad(t, s.w.buf[off:off+size])
				if steps > s.delay || payload > rate*s.delay {
					t.Errorf("seed %d %s: one write carries %d steps and %d payload bytes, bound is D=%d and R·D=%d",
						seed, s.name, steps, payload, s.delay, rate*s.delay)
				}
				off += size
			}
		}
		sh.met.Publish()
		snap := eng.Obs().Snapshot(nil)
		if got := int64(snap.Scalars[eng.met.cCatchupSteps]); got != wantCatchup {
			t.Errorf("seed %d: serve_catchup_steps_total %d, want %d", seed, got, wantCatchup)
		}
		if got := int64(snap.Scalars[eng.met.cForgivenSteps]); got != wantForgiven {
			t.Errorf("seed %d: serve_forgiven_steps_total %d, want %d", seed, got, wantForgiven)
		}
		if eng.ActiveSessions() != 0 || eng.ServedSessions() != sessions {
			t.Errorf("seed %d: %d active, %d served of %d", seed, eng.ActiveSessions(), eng.ServedSessions(), sessions)
		}
		eng.Close()
	}
	if !gapWhileAdmitting || !gapOnFinalStep || !forgave || !burstFull {
		t.Errorf("schedules missed a case: gap while admitting %v, gap on a final step %v, forgiven steps %v, full D-step burst %v",
			gapWhileAdmitting, gapOnFinalStep, forgave, burstFull)
	}
}

// stallConn stands between the engine and a real connection. It notes the
// model tick and size of every stream write (the first write is the Accept)
// and, on one chosen write, holds the shard goroutine until `miss` whole
// ticks after the one being served have gone by.
type stallConn struct {
	net.Conn           // not a *net.TCPConn, so the engine writes through Write
	out      io.Writer // the same connection, for passing writes on
	sh       *shard
	stallAt  int // index of the stream write to stall on; -1 for none
	miss     int64

	accepted bool
	ticks    []int64
	sizes    []int
}

func (c *stallConn) Write(p []byte) (int, error) {
	if !c.accepted {
		c.accepted = true
		return c.out.Write(p)
	}
	// Stream writes run on the shard goroutine, which owns sh; its clock
	// holds the due time of the tick being served.
	d := c.sh.eng.cfg.StepDuration
	tick := (c.sh.now - c.sh.epoch.UnixNano()) / int64(d)
	if len(c.ticks) == c.stallAt {
		time.Sleep(time.Until(c.sh.epoch.Add(time.Duration(tick+c.miss+1)*d + d/4)))
	}
	c.ticks = append(c.ticks, tick)
	c.sizes = append(c.sizes, len(p))
	return c.out.Write(p)
}

// TestCatchUpAfterShardStall stalls a real engine's shard over loopback
// TCP for k < D ticks and checks that the next write carries the k missed
// steps with the one then due, that the write boundaries follow the model
// clock throughout, and that the client cannot tell: same stream, same
// playout as a session that was never stalled.
func TestCatchUpAfterShardStall(t *testing.T) {
	const (
		delay   = 8
		k       = 3
		stallAt = 10
	)
	clip := testClip(t, 40)
	ended := make(chan struct{}, 1) // orders the shard's last write before the checks
	eng, err := New(clip, trace.PaperWeights(), Config{
		Rate: 2 * int(clip.AverageRate()), Shards: 1, StepDuration: 10 * time.Millisecond, MaxDelay: delay,
		OnSessionDone: func(SessionStats, error) { ended <- struct{}{} },
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

	session := func(stall int) (*stallConn, clientResult) {
		t.Helper()
		var wg sync.WaitGroup
		var res clientResult
		var clientErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				clientErr = err
				return
			}
			res, clientErr = runClient(conn, delay, 1)
			_ = conn.Close()
		}()
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		sc := &stallConn{Conn: conn, out: conn, sh: eng.shards[0], stallAt: stall, miss: k}
		if err := eng.Handle(sc); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		<-ended
		if clientErr != nil {
			t.Fatal(clientErr)
		}
		return sc, res
	}
	stalled, got := session(stallAt)
	_, want := session(-1)

	c, err := eng.cohortFor(delay, delay*eng.cfg.Rate)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the recorded ticks through the catch-up rule: every write must
	// be exactly the span the model clock says was owed at its tick.
	cur, base := 0, stalled.ticks[0]
	off := 0
	for i, tick := range stalled.ticks {
		owed := int(tick-base) + 1 - cur
		n := min(owed, delay)
		base += int64(owed - n)
		n = min(n, c.Steps()-cur)
		if want := int(c.off[cur+n] - c.off[cur]); stalled.sizes[i] != want {
			t.Fatalf("write %d at tick %d: %d bytes, want %d (%d steps from %d)", i, tick, stalled.sizes[i], want, n, cur)
		}
		if i == stallAt+1 {
			if missed := tick - stalled.ticks[stallAt]; missed < k+1 {
				t.Fatalf("the shard lost only %d ticks to the stall, want at least %d", missed, k+1)
			}
			if n < k+1 || n > delay {
				t.Fatalf("the write after the stall carries %d steps, want %d to %d", n, k+1, delay)
			}
		}
		cur += n
		off += stalled.sizes[i]
	}
	if cur != c.Steps() || off != c.WireBytes() {
		t.Fatalf("the stalled session got %d steps and %d bytes, the plan has %d and %d", cur, off, c.Steps(), c.WireBytes())
	}
	if !reflect.DeepEqual(got.stats, want.stats) || len(got.played) != len(want.played) {
		t.Fatalf("the stalled client played %+v, an unstalled one %+v", got.stats, want.stats)
	}
	//smoothvet:ordered membership check only; any order reaches the same verdict
	for id := range want.played {
		if !got.played[id] {
			t.Fatalf("slice %d played without the stall but not with it", id)
		}
	}
	if got.stats.Played != len(clip.Frames) || got.stats.Incomplete != 0 {
		t.Fatalf("lossless setup lost data: %+v", got.stats)
	}
	snap := eng.Obs().Snapshot(nil)
	if snap.Scalars[eng.met.cTickOverruns] == 0 || snap.Scalars[eng.met.cCatchupSteps] < k {
		t.Errorf("serve_tick_overruns_total %d, serve_catchup_steps_total %d after a %d-tick stall",
			snap.Scalars[eng.met.cTickOverruns], snap.Scalars[eng.met.cCatchupSteps], k)
	}
}

// TestHandleBoundsSilentClient — a peer that connects and never sends its
// Hello is rejected when the handshake deadline expires, instead of holding
// Handle's goroutine and the connection for ever outside MaxSessions,
// whatever the engine serves.
func TestHandleBoundsSilentClient(t *testing.T) {
	for _, content := range contents {
		t.Run(content.name, func(t *testing.T) {
			eng, frames := startEngine(t, content.streams, 40, Config{
				Shards: 1, StepDuration: 2 * time.Millisecond, MaxDelay: 4,
			})
			defer eng.Close()
			eng.handshakeTimeout = 30 * time.Millisecond // only Handle reads it

			server, client := net.Pipe()
			defer client.Close()
			handled := make(chan error, 1)
			go func() { handled <- eng.Handle(server) }()
			select {
			case err := <-handled:
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("silent client rejected with %v, want a deadline error", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Handle still waits for a Hello that never comes")
			}
			if _, err := client.Read(make([]byte, 1)); err == nil {
				t.Error("the rejected connection was left open")
			}
			if got := eng.Obs().Snapshot(nil).Scalars[eng.met.cRejected]; got != 1 {
				t.Errorf("serve_sessions_rejected_total %d, want 1", got)
			}

			// The deadline covers the handshake only: a stream that outlasts it
			// several times over still drains to End.
			server, client = net.Pipe()
			go func() { handled <- eng.Handle(server) }()
			res, err := runClient(client, 4, content.streams)
			_ = client.Close()
			if err != nil {
				t.Fatalf("session longer than the handshake timeout: %v", err)
			}
			if err := <-handled; err != nil {
				t.Fatal(err)
			}
			if res.stats.Played != frames {
				t.Errorf("played %d of %d frames", res.stats.Played, frames)
			}
		})
	}
}
