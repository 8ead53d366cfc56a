package serve

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/drop"
	"repro/internal/trace"
)

// replayFallback drives one per-session Sender path session to completion
// against a capture buffer and returns the exact byte stream plus the
// step/drop counters the engine would have reported.
func replayFallback(t *testing.T, eng *Engine, delay, buffer int) (wire []byte, steps, dropped int) {
	t.Helper()
	var buf bytes.Buffer
	s, err := eng.newSession(&buf, delay, buffer)
	if err != nil {
		t.Fatal(err)
	}
	for {
		done, err := s.stepOnce()
		if err != nil {
			t.Fatalf("fallback step %d: %v", s.step, err)
		}
		if done {
			break
		}
	}
	steps, dropped = s.step, s.dropped
	s.finish(time.Now(), nil)
	return buf.Bytes(), steps, dropped
}

// TestCohortGoldenEquivalence is the contract of the compute-once layer:
// for every policy, negotiated parameter set and provisioning level, the
// cohort's precomputed wire stream must be byte-identical to what the
// per-session Sender path writes, and its step/drop bookkeeping must
// match the fallback session's counters.
func TestCohortGoldenEquivalence(t *testing.T) {
	clip := testClip(t, 40)
	policies := []struct {
		name    string
		factory drop.Factory
	}{
		{"greedy", drop.Greedy},
		{"taildrop", drop.TailDrop},
		{"headdrop", drop.HeadDrop},
		{"random", drop.Random(7)},
	}
	// Rate factors below 1 force drops; delay/buffer pairs include a
	// client-capped buffer (buffer < rate*delay is impossible after
	// negotiation, but unequal ratios are).
	for _, p := range policies {
		for _, rateFactor := range []float64{0.8, 1.0, 2.0} {
			rate := int(rateFactor * clip.AverageRate())
			if rate < 1 {
				rate = 1
			}
			eng, err := newEngine(clip, trace.PaperWeights(), Config{
				Rate:         rate,
				Shards:       1,
				StepDuration: time.Millisecond,
				MaxDelay:     16,
				Policy:       p.factory,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []int{2, 8, 16} {
				for _, buffer := range []int{rate * d, rate * d * 2} {
					name := fmt.Sprintf("%s/rf=%.1f/D=%d/B=%d", p.name, rateFactor, d, buffer)
					c := eng.cohortFor(d, buffer)
					if c == nil {
						t.Fatalf("%s: cohort cache refused the key", name)
					}
					wire, steps, dropped := replayFallback(t, eng, d, buffer)
					if !bytes.Equal(c.wire, wire) {
						t.Fatalf("%s: cohort wire (%d bytes) differs from fallback (%d bytes)",
							name, len(c.wire), len(wire))
					}
					if c.Steps() != steps {
						t.Fatalf("%s: cohort plans %d steps, fallback ran %d", name, c.Steps(), steps)
					}
					if got := c.droppedThrough(int32(c.Steps())); got != dropped {
						t.Fatalf("%s: cohort dropped %d, fallback %d", name, got, dropped)
					}
				}
			}
			eng.Close()
		}
	}
}

// TestCohortStepSlices — the per-step spans of the plan reassemble exactly
// to the full wire stream, and mid-stream cursors see monotone drops.
func TestCohortStepSlices(t *testing.T) {
	clip := testClip(t, 20)
	eng, err := newEngine(clip, trace.PaperWeights(), Config{
		Rate:         int(clip.AverageRate()),
		Shards:       1,
		StepDuration: time.Millisecond,
		MaxDelay:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	c := eng.cohortFor(8, 8*eng.cfg.Rate)
	if c == nil {
		t.Fatal("cohort cache refused the key")
	}
	var joined []byte
	prev := 0
	for s := int32(0); int(s) < c.Steps(); s++ {
		joined = append(joined, c.span(s, s+1)...)
		if d := c.droppedThrough(s + 1); d < prev {
			t.Fatalf("drops not monotone at step %d: %d < %d", s, d, prev)
		} else {
			prev = d
		}
	}
	if !bytes.Equal(joined, c.wire) {
		t.Fatalf("step spans reassemble to %d bytes, wire is %d", len(joined), len(c.wire))
	}
	if c.WireBytes() != len(c.wire) {
		t.Fatalf("WireBytes %d != len(wire) %d", c.WireBytes(), len(c.wire))
	}
}

// TestCohortCache — one build per key, pointer-shared across lookups;
// distinct keys get distinct plans; the capacity cap and the disable
// switch both fall back to nil (the per-session path).
func TestCohortCache(t *testing.T) {
	clip := testClip(t, 10)
	eng, err := newEngine(clip, trace.PaperWeights(), Config{
		Rate:         2 * int(clip.AverageRate()),
		Shards:       1,
		StepDuration: time.Millisecond,
		MaxDelay:     8,
		MaxCohorts:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	r := eng.cfg.Rate
	a1 := eng.cohortFor(4, 4*r)
	a2 := eng.cohortFor(4, 4*r)
	if a1 == nil || a1 != a2 {
		t.Fatalf("same key not shared: %p vs %p", a1, a2)
	}
	b := eng.cohortFor(8, 8*r)
	if b == nil || b == a1 {
		t.Fatal("distinct keys must get distinct cohorts")
	}
	if c := eng.cohortFor(2, 2*r); c != nil {
		t.Fatal("cache over capacity must fall back to the per-session path")
	}
	// Existing keys keep hitting after the cap.
	if got := eng.cohortFor(4, 4*r); got != a1 {
		t.Fatal("cached key evicted by capacity pressure")
	}

	eng2, err := newEngine(clip, trace.PaperWeights(), Config{
		Rate:           2 * int(clip.AverageRate()),
		Shards:         1,
		StepDuration:   time.Millisecond,
		DisableCohorts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if c := eng2.cohortFor(4, 4*eng2.cfg.Rate); c != nil {
		t.Fatal("DisableCohorts engine must not build cohorts")
	}
}

// TestCohortCacheConcurrent — many goroutines racing the same key must
// share one build (run under -race in CI).
func TestCohortCacheConcurrent(t *testing.T) {
	clip := testClip(t, 10)
	eng, err := newEngine(clip, trace.PaperWeights(), Config{
		Rate:         2 * int(clip.AverageRate()),
		Shards:       1,
		StepDuration: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const gs = 16
	got := make([]*Cohort, gs)
	var wg sync.WaitGroup
	for i := 0; i < gs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = eng.cohortFor(8, 8*eng.cfg.Rate)
		}(i)
	}
	wg.Wait()
	for i := 1; i < gs; i++ {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("goroutine %d got %p, goroutine 0 got %p", i, got[i], got[0])
		}
	}
}

// TestDrainAdmitRace — sessions enqueued concurrently with Drain/Close
// must each be either cleanly served or cleanly rejected: no leaked
// sessWG count (Drain would hang), no double-finish (the WaitGroup would
// panic), no lost accounting. The race detector in CI covers the memory
// side.
func TestDrainAdmitRace(t *testing.T) {
	clip := testClip(t, 5)
	eng, err := New(clip, trace.PaperWeights(), Config{
		Rate:         2 * int(clip.AverageRate()),
		Shards:       2,
		StepDuration: 100 * time.Microsecond,
		MaxDelay:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 32
	var handled, rejected atomic.Int64
	var wg, clientWG sync.WaitGroup
	for i := 0; i < clients; i++ {
		server, client := net.Pipe()
		clientWG.Add(1)
		go func(c net.Conn) {
			defer clientWG.Done()
			_, _ = runClient(c, 4) // aborted sessions error; that's fine
			_ = c.Close()
		}(client)
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			if err := eng.Handle(c); err != nil {
				rejected.Add(1)
			} else {
				handled.Add(1)
			}
		}(server)
		if i == clients/2 {
			// Kill the engine while admissions are still racing in.
			go eng.Close()
		}
	}
	wg.Wait()
	eng.Close()
	// Every admitted session must have finished (served or aborted); a
	// leaked sessWG count would hang this drain.
	if !eng.Drain(5 * time.Second) {
		t.Fatal("sessions leaked across Drain/Close: sessWG never drained")
	}
	clientWG.Wait()
	if got, want := int64(eng.ServedSessions()), handled.Load(); got != want {
		t.Fatalf("served %d sessions, admitted %d", got, want)
	}
	if handled.Load()+rejected.Load() != clients {
		t.Fatalf("accounting lost sessions: %d handled + %d rejected != %d",
			handled.Load(), rejected.Load(), clients)
	}
	if eng.ActiveSessions() != 0 {
		t.Fatalf("%d sessions still active after close", eng.ActiveSessions())
	}
}

// armCountConn counts SetWriteDeadline calls; Write always succeeds.
type armCountConn struct {
	net.Conn
	arms int
}

func (c *armCountConn) SetWriteDeadline(time.Time) error { c.arms++; return nil }
func (c *armCountConn) Write(p []byte) (int, error)      { return len(p), nil }

// TestDeadlineWriterArmsOncePerTick — the writer re-arms only when the
// shard tick clock advances, not per flush.
func TestDeadlineWriterArmsOncePerTick(t *testing.T) {
	conn := &armCountConn{}
	var clk tickClock
	w := &deadlineWriter{c: conn, d: time.Second, clk: &clk}
	clk.nanos.Store(100)
	for i := 0; i < 3; i++ {
		if _, err := w.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if conn.arms != 1 {
		t.Fatalf("3 writes in one tick armed %d deadlines, want 1", conn.arms)
	}
	clk.nanos.Store(200)
	if _, err := w.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if conn.arms != 2 {
		t.Fatalf("next tick armed %d deadlines total, want 2", conn.arms)
	}
}
