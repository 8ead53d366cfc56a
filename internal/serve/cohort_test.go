package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/drop"
	"repro/internal/netstream"
	"repro/internal/stream"
	"repro/internal/trace"
)

// bareSender drives one netstream.Sender over the offer table into a
// capture buffer, one Tick per step until the horizon is past and the
// buffer drained, then the End marker: the reference every cohort plan is
// held to. It returns the byte stream and the step/drop counts.
func bareSender(t *testing.T, offers [][]netstream.Offered, cfg netstream.SenderConfig) (wire []byte, steps, dropped int) {
	t.Helper()
	var buf bytes.Buffer
	snd, err := netstream.NewSender(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ; steps < len(offers) || snd.Backlog() > 0; steps++ {
		var arrivals []netstream.Offered
		if steps < len(offers) {
			arrivals = offers[steps]
		}
		stats, err := snd.Tick(arrivals)
		if err != nil {
			t.Fatalf("sender step %d: %v", steps, err)
		}
		dropped += len(stats.Dropped)
	}
	if err := netstream.WriteEnd(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), steps, dropped
}

// TestCohortGoldenEquivalence is the contract of the compute-once layer:
// for every policy, negotiated parameter set and provisioning level, the
// cohort's precomputed wire stream must be byte-identical to what a bare
// netstream.Sender writes for the clip, and its step/drop bookkeeping must
// match the sender's counters.
func TestCohortGoldenEquivalence(t *testing.T) {
	clip := testClip(t, 40)
	st, err := trace.WholeFrameStream(clip, trace.PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	// The reference builds its own offers straight from the stream.
	offers := make([][]netstream.Offered, st.Horizon()+1)
	for step := range offers {
		offers[step] = netstream.OfferStream(st, step, func(sl stream.Slice) []byte {
			return netstream.SynthPayload(sl.ID, sl.Size)
		})
	}
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
					c, err := eng.cohortFor(d, buffer)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					wire, steps, dropped := bareSender(t, offers, netstream.SenderConfig{
						ServerBuffer: buffer, Rate: rate, Delay: d, Policy: p.factory,
					})
					if !bytes.Equal(c.wire, wire) {
						t.Fatalf("%s: cohort wire (%d bytes) differs from the sender's (%d bytes)",
							name, len(c.wire), len(wire))
					}
					if c.Steps() != steps {
						t.Fatalf("%s: cohort plans %d steps, the sender ran %d", name, c.Steps(), steps)
					}
					if got := c.droppedThrough(int32(c.Steps())); got != dropped {
						t.Fatalf("%s: cohort dropped %d, the sender %d", name, got, dropped)
					}
				}
			}
			eng.Close()
		}
	}
}

// TestMuxCohortGoldenEquivalence is the multiplexed twin: a NewMux engine's
// plan is byte-identical to the unpaced netstream.ServeMux reference for
// the same (clips, SenderConfig), and one session served through Handle,
// decoded by netstream.ReceiveStream, plays exactly what the reference stream plays
// per substream — and what the map-based receiver played, pinned as literals.
func TestMuxCohortGoldenEquivalence(t *testing.T) {
	const k, delay = 3, 8
	clips := testClips(t, k, 40)
	total := 0.0
	for _, c := range clips {
		total += c.AverageRate()
	}
	for _, tc := range []struct {
		rateFactor float64
		perStream  []netstream.StreamStats // what the map-based receiver played
	}{
		{0.8, []netstream.StreamStats{{Played: 37, Bytes: 407, Weight: 2535}, {Played: 36, Bytes: 338, Weight: 2275}, {Played: 33, Bytes: 311, Weight: 2030}}},
		{2.0, []netstream.StreamStats{{Played: 40, Bytes: 423, Weight: 2551}, {Played: 40, Bytes: 356, Weight: 2293}, {Played: 40, Bytes: 347, Weight: 2066}}},
	} {
		rateFactor, perStream := tc.rateFactor, tc.perStream
		rate := int(rateFactor * total)
		eng, err := NewMux(clips, trace.PaperWeights(), Config{
			Rate: rate, Shards: 1, StepDuration: 200 * time.Microsecond, MaxDelay: delay, Policy: drop.Greedy,
		})
		if err != nil {
			t.Fatal(err)
		}
		var ref bytes.Buffer
		refDropped, err := netstream.ServeMux(&ref, clips, netstream.SenderConfig{
			ServerBuffer: rate * delay, Rate: rate, Delay: delay, Policy: drop.Greedy,
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := eng.cohortFor(delay, rate*delay)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.wire, ref.Bytes()) {
			t.Fatalf("rf=%.1f: mux cohort wire (%d bytes) differs from ServeMux (%d bytes)", rateFactor, len(c.wire), ref.Len())
		}
		if got := c.droppedThrough(int32(c.Steps())); got != refDropped {
			t.Fatalf("rf=%.1f: mux cohort dropped %d, ServeMux %d", rateFactor, got, refDropped)
		}
		if rateFactor < 1 && refDropped == 0 {
			t.Fatalf("rf=%.1f: the under-provisioned link shed nothing", rateFactor)
		}
		want, err := netstream.ReceiveStream(&ref, delay, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.PerStream, perStream) || want.Incomplete != 0 {
			t.Fatalf("rf=%.1f: the reference played %+v, the map-based receiver %+v and 0 incomplete", rateFactor, want, perStream)
		}

		server, client := net.Pipe()
		handled := make(chan error, 1)
		go func() { handled <- eng.Handle(server) }()
		if err := netstream.WriteHello(client, netstream.Hello{DesiredDelay: delay}); err != nil {
			t.Fatal(err)
		}
		msg, err := netstream.ReadMsg(client)
		if err != nil || msg.Accept == nil || msg.Accept.Delay != delay || int(msg.Accept.ServerBuffer) != rate*delay {
			t.Fatalf("rf=%.1f: accept %+v, %v", rateFactor, msg.Accept, err)
		}
		got, err := netstream.ReceiveStream(client, delay, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = client.Close()
		if err := <-handled; err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rf=%.1f: engine-served session played %+v, the reference %+v", rateFactor, got, want)
		}
		eng.Close()
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
	c, err := eng.cohortFor(8, 8*eng.cfg.Rate)
	if err != nil {
		t.Fatal(err)
	}
	var joined []byte
	prev := 0
	for s := int32(0); int(s) < c.Steps(); s++ {
		joined = append(joined, c.span(c.off[s], s+1)...)
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
// distinct keys get distinct plans.
func TestCohortCache(t *testing.T) {
	clip := testClip(t, 10)
	eng, err := newEngine(clip, trace.PaperWeights(), Config{
		Rate:         2 * int(clip.AverageRate()),
		Shards:       1,
		StepDuration: time.Millisecond,
		MaxDelay:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	r := eng.cfg.Rate
	a1, err1 := eng.cohortFor(4, 4*r)
	a2, err2 := eng.cohortFor(4, 4*r)
	if err1 != nil || err2 != nil || a1 != a2 {
		t.Fatalf("same key not shared: %p (%v) vs %p (%v)", a1, err1, a2, err2)
	}
	if b, err := eng.cohortFor(8, 8*r); err != nil || b == a1 {
		t.Fatalf("distinct keys must get distinct cohorts (%v)", err)
	}
}

// TestCohortKeysBoundedByMaxDelay — the plan table has no cap because the
// wire cannot name more than MaxDelay keys: whatever Hellos arrive, every
// negotiated key is (delay, rate·delay) with 1 ≤ delay ≤ MaxDelay, so the
// table holds at most MaxDelay plans, each one encoded copy of the clip.
func TestCohortKeysBoundedByMaxDelay(t *testing.T) {
	const maxDelay = 6
	clip := testClip(t, 10)
	eng, err := newEngine(clip, trace.PaperWeights(), Config{
		Rate: 2 * int(clip.AverageRate()), Shards: 1, StepDuration: time.Millisecond, MaxDelay: maxDelay,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rate := eng.cfg.Rate
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		h := netstream.Hello{ClientBuffer: uint32(rng.Intn(3 * rate * maxDelay)), DesiredDelay: uint32(rng.Intn(3 * maxDelay))}
		if i%7 == 0 {
			h = netstream.Hello{ClientBuffer: rng.Uint32(), DesiredDelay: rng.Uint32()}
		}
		delay, buffer := netstream.NegotiateSession(h, rate, maxDelay)
		if _, err := eng.cohortFor(delay, buffer); err != nil {
			t.Fatalf("hello %+v: %v", h, err)
		}
	}
	if n := len(eng.cohorts.m); n != maxDelay {
		t.Fatalf("%d plans built from 2000 arbitrary hellos, want exactly MaxDelay = %d", n, maxDelay)
	}
	//smoothvet:ordered every key is checked; any order reaches the same verdict
	for key := range eng.cohorts.m {
		if key.delay < 1 || key.delay > maxDelay || key.buffer != rate*key.delay {
			t.Errorf("key %+v is not (delay, rate·delay) with delay in [1, %d]", key, maxDelay)
		}
	}
}

// TestHandleRejects — every way a handshake can fail before registration
// ends the same: Handle returns the error, the connection is closed, the
// refusal is counted and nothing stays registered. The last case is a key
// whose plan cannot be built; its error is remembered, so a second Handle
// for the key is refused too.
func TestHandleRejects(t *testing.T) {
	// A payload shorter than its slice says makes Sender.Tick, and so
	// buildCohort, fail.
	bad := [][]netstream.Offered{{{Slice: stream.Slice{ID: 0, Size: 4, Weight: 1}, Payload: []byte{1}}}}
	eng, err := newEngineOffers(bad, Config{Rate: 4, Shards: 1, StepDuration: time.Millisecond, MaxDelay: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng.start()
	defer eng.Close()
	hello := func(c net.Conn) error { return netstream.WriteHello(c, netstream.Hello{DesiredDelay: 2}) }
	rejected := uint64(0)
	for _, tc := range []struct {
		name     string
		send     func(c net.Conn) error
		accepted bool // the Accept goes out before the failure
	}{
		{"hello with bad magic", func(c net.Conn) error {
			var frame bytes.Buffer
			_ = netstream.WriteHello(&frame, netstream.Hello{DesiredDelay: 2})
			frame.Bytes()[1] ^= 0xff
			if err := c.SetWriteDeadline(time.Now().Add(5 * time.Second)); err != nil {
				return err
			}
			_, err := c.Write(frame.Bytes())
			return err
		}, false},
		{"accept in place of hello", func(c net.Conn) error { return netstream.WriteAccept(c, netstream.Accept{Rate: 1, Delay: 1}) }, false},
		{"unbuildable plan", hello, true},
		{"unbuildable plan, remembered", hello, true},
	} {
		server, client := net.Pipe()
		handled := make(chan error, 1)
		go func() { handled <- eng.Handle(server) }()
		if err := tc.send(client); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.accepted {
			if msg, err := netstream.ReadMsg(client); err != nil || msg.Accept == nil {
				t.Fatalf("%s: accept %+v, %v", tc.name, msg, err)
			}
		}
		if _, err := client.Read(make([]byte, 1)); err == nil {
			t.Errorf("%s: the rejected connection was left open", tc.name)
		}
		if err := <-handled; err == nil {
			t.Errorf("%s: Handle admitted the session", tc.name)
		}
		_ = client.Close()
		rejected++
		if got := eng.Obs().Snapshot(nil).Scalars[eng.met.cRejected]; got != rejected {
			t.Errorf("%s: serve_sessions_rejected_total %d, want %d", tc.name, got, rejected)
		}
	}
	if eng.ActiveSessions() != 0 || len(eng.cohorts.m) != 1 {
		t.Errorf("%d sessions active, %d table entries after the refusals", eng.ActiveSessions(), len(eng.cohorts.m))
	}
}

// TestNewRejectsBadConfig — a non-positive rate, or nothing to multiplex,
// is refused at construction.
func TestNewRejectsBadConfig(t *testing.T) {
	clips := testClips(t, 2, 5)
	for _, rate := range []int{0, -3} {
		if _, err := New(clips[0], trace.PaperWeights(), Config{Rate: rate}); err == nil {
			t.Errorf("New accepted rate %d", rate)
		}
		if _, err := NewMux(clips, trace.PaperWeights(), Config{Rate: rate}); err == nil {
			t.Errorf("NewMux accepted rate %d", rate)
		}
	}
	if _, err := NewMux(nil, trace.PaperWeights(), Config{Rate: 1}); err == nil {
		t.Error("NewMux accepted an empty clip list")
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
			got[i], _ = eng.cohortFor(8, 8*eng.cfg.Rate)
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
			_, _ = runClient(c, 4, 1) // aborted sessions error; that's fine
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
