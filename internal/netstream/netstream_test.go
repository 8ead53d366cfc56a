package netstream

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/stream"
)

func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, Hello{ClientBuffer: 100, DesiredDelay: 7}); err != nil {
		t.Fatal(err)
	}
	if err := WriteAccept(&buf, Accept{Rate: 3, Delay: 7, ServerBuffer: 21, StepMicros: 40000}); err != nil {
		t.Fatal(err)
	}
	d := Data{SliceID: 5, Arrival: 2, Size: 4, Weight: 2.5, SendStep: 3, Offset: 1, Payload: []byte{9, 8}}
	if err := WriteData(&buf, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteEnd(&buf); err != nil {
		t.Fatal(err)
	}

	m1, err := ReadMsg(&buf)
	if err != nil || m1.Hello == nil || m1.Hello.ClientBuffer != 100 || m1.Hello.DesiredDelay != 7 {
		t.Fatalf("hello round trip: %+v, %v", m1, err)
	}
	m2, err := ReadMsg(&buf)
	if err != nil || m2.Accept == nil || *m2.Accept != (Accept{3, 7, 21, 40000}) {
		t.Fatalf("accept round trip: %+v, %v", m2, err)
	}
	m3, err := ReadMsg(&buf)
	if err != nil || m3.Data == nil {
		t.Fatalf("data round trip: %+v, %v", m3, err)
	}
	if m3.Data.SliceID != 5 || m3.Data.Weight != 2.5 || !bytes.Equal(m3.Data.Payload, []byte{9, 8}) {
		t.Fatalf("data fields: %+v", m3.Data)
	}
	m4, err := ReadMsg(&buf)
	if err != nil || !m4.End {
		t.Fatalf("end round trip: %+v, %v", m4, err)
	}
	if _, err := ReadMsg(&buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestCodecErrors(t *testing.T) {
	// Unknown tag.
	if _, err := ReadMsg(bytes.NewReader([]byte{99})); err == nil {
		t.Error("unknown tag accepted")
	}
	// Bad magic.
	var buf bytes.Buffer
	if err := WriteHello(&buf, Hello{}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[1] ^= 0xff
	if _, err := ReadMsg(bytes.NewReader(b)); err != ErrBadMagic {
		t.Errorf("corrupted magic: err = %v", err)
	}
	// Truncated data message.
	buf.Reset()
	if err := WriteData(&buf, Data{SliceID: 1, Size: 4, Payload: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadMsg(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated payload accepted")
	}
	// Oversize payload length field.
	big := make([]byte, 33)
	big[0] = msgData
	for i := 29; i < 33; i++ {
		big[i] = 0xff
	}
	if _, err := ReadMsg(bytes.NewReader(big)); err == nil {
		t.Error("oversize payload length accepted")
	}
}

func TestSenderValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewSender(&buf, SenderConfig{ServerBuffer: 0, Rate: 1}); err == nil {
		t.Error("B=0 accepted")
	}
	s, err := NewSender(&buf, SenderConfig{ServerBuffer: 4, Rate: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Delay() != 2 {
		t.Errorf("derived delay = %d, want 2", s.Delay())
	}
	// Payload size mismatch.
	_, err = s.Tick([]Offered{{Slice: stream.Slice{ID: 1, Size: 3}, Payload: []byte{1}}})
	if err == nil {
		t.Error("payload size mismatch accepted")
	}
	// Duplicate ID.
	if _, err := s.Tick([]Offered{{Slice: stream.Slice{ID: 2, Size: 1}, Payload: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	_, err = s.Tick([]Offered{{Slice: stream.Slice{ID: 2, Size: 1}, Payload: []byte{1}}})
	if err == nil {
		t.Error("duplicate slice ID accepted")
	}
}

// pump drives a sender over a whole stream and drains it.
func pump(t *testing.T, st *stream.Stream, cfg SenderConfig, w io.Writer) *Sender {
	t.Helper()
	s, err := NewSender(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step <= st.Horizon(); step++ {
		offers := OfferStream(st, step, func(sl stream.Slice) []byte {
			return SynthPayload(sl.ID, sl.Size)
		})
		if _, err := s.Tick(offers); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	return s
}

// receiveAll consumes a byte stream synchronously and returns the stats.
func receiveAll(t *testing.T, r io.Reader, delay int) (played []ReceivedSlice, incomplete int, rcv *Receiver) {
	t.Helper()
	rcv, err := NewReceiver(delay)
	if err != nil {
		t.Fatal(err)
	}
	playUpTo := -1
	flush := func(step int) {
		for playUpTo < step {
			playUpTo++
			ev := rcv.Play(playUpTo)
			played = append(played, ev.Slices...)
			incomplete += ev.Incomplete
		}
	}
	maxFrame := -1
	for {
		msg, err := ReadMsg(r)
		if err != nil {
			t.Fatal(err)
		}
		if msg.End {
			break
		}
		flush(int(msg.Data.SendStep) - 1)
		if int(msg.Data.Arrival) > maxFrame {
			maxFrame = int(msg.Data.Arrival)
		}
		if err := rcv.Ingest(msg.Data); err != nil {
			t.Fatal(err)
		}
	}
	flush(maxFrame + delay)
	return played, incomplete, rcv
}

// TestEndToEndMatchesSimulation — the wire pipeline plays exactly the same
// slices as core.Simulate with the same parameters.
func TestEndToEndMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		b := stream.NewBuilder()
		n := rng.Intn(30) + 5
		for i := 0; i < n; i++ {
			size := rng.Intn(4) + 1
			b.Add(rng.Intn(10), size, float64(rng.Intn(20)+1))
		}
		st := b.MustBuild()
		R := rng.Intn(3) + 1
		B := R * (rng.Intn(4) + st.MaxSliceSize())

		var wire bytes.Buffer
		snd := pump(t, st, SenderConfig{ServerBuffer: B, Rate: R, Policy: drop.Greedy}, &wire)
		played, incomplete, _ := receiveAll(t, &wire, snd.Delay())

		sim, err := core.Simulate(st, core.Config{ServerBuffer: B, Rate: R, Policy: drop.Greedy})
		if err != nil {
			t.Fatal(err)
		}
		wantPlayed := map[int]bool{}
		for id, o := range sim.Outcomes {
			if o.Played() {
				wantPlayed[id] = true
			}
		}
		if incomplete != 0 {
			t.Fatalf("trial %d: %d incomplete slices on a lossless wire", trial, incomplete)
		}
		if len(played) != len(wantPlayed) {
			t.Fatalf("trial %d: wire played %d slices, simulation %d", trial, len(played), len(wantPlayed))
		}
		var benefit float64
		for _, sl := range played {
			if !wantPlayed[sl.ID] {
				t.Fatalf("trial %d: wire played slice %d the simulation dropped", trial, sl.ID)
			}
			if !bytes.Equal(sl.Payload, SynthPayload(sl.ID, sl.Size)) {
				t.Fatalf("trial %d: slice %d payload corrupted", trial, sl.ID)
			}
			benefit += sl.Weight
		}
		if math.Abs(benefit-sim.Benefit()) > 1e-9 {
			t.Fatalf("trial %d: wire benefit %v != sim benefit %v", trial, benefit, sim.Benefit())
		}
	}
}

func TestReceiverLateBytesDiscarded(t *testing.T) {
	rcv, err := NewReceiver(1)
	if err != nil {
		t.Fatal(err)
	}
	// Frame 0 plays at step 1.
	if err := rcv.Ingest(&Data{SliceID: 0, Arrival: 0, Size: 2, SendStep: 0, Offset: 0, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	ev := rcv.Play(0)
	if len(ev.Slices) != 0 || ev.Incomplete != 0 {
		t.Fatalf("Play(0) = %+v", ev)
	}
	ev = rcv.Play(1)
	if ev.Incomplete != 1 {
		t.Fatalf("incomplete slice not reported: %+v", ev)
	}
	// A late byte of frame 0 arrives afterwards: discarded and counted.
	if err := rcv.Ingest(&Data{SliceID: 0, Arrival: 0, Size: 2, SendStep: 5, Offset: 1, Payload: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	if rcv.LateBytes() != 1 {
		t.Errorf("LateBytes = %d, want 1", rcv.LateBytes())
	}
	if rcv.Occupancy() != 0 {
		t.Errorf("occupancy = %d after late discard", rcv.Occupancy())
	}
}

func TestReceiverBadMessages(t *testing.T) {
	rcv, err := NewReceiver(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rcv.Ingest(&Data{SliceID: 1, Arrival: 0, Size: 0}); err == nil {
		t.Error("zero-size slice accepted")
	}
	if err := rcv.Ingest(&Data{SliceID: 2, Arrival: 0, Size: 2, Offset: 2, Payload: []byte{1}}); err == nil {
		t.Error("out-of-range offset accepted")
	}
	if _, err := NewReceiver(-1); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestSynthPayloadDeterministic(t *testing.T) {
	a := SynthPayload(7, 64)
	b := SynthPayload(7, 64)
	if !bytes.Equal(a, b) {
		t.Error("payload not deterministic")
	}
	c := SynthPayload(8, 64)
	if bytes.Equal(a, c) {
		t.Error("different IDs produced identical payloads")
	}
}

// TestNegotiateSession — the negotiation law the serving engine's plan
// table leans on: whatever the Hello, 1 ≤ D ≤ maxDelay and B = R·D exactly
// (so the wire can name at most maxDelay distinct (D, B) pairs), and B fits
// the client's advertised buffer whenever that holds one step of link output.
func TestNegotiateSession(t *testing.T) {
	for _, tc := range []struct {
		hello          Hello
		rate, maxDelay int
		wantDelay      int
	}{
		{Hello{DesiredDelay: 999}, 2, 8, 8},                // clamped to maxDelay
		{Hello{DesiredDelay: 0}, 2, 8, 8},                  // default to maxDelay
		{Hello{DesiredDelay: 6, ClientBuffer: 8}, 2, 8, 4}, // capped by client buffer: B=8 -> D=8/2
		{Hello{DesiredDelay: 6, ClientBuffer: 9}, 2, 8, 4}, // B rounds down to a multiple of R
		{Hello{DesiredDelay: 6, ClientBuffer: 1}, 2, 8, 1}, // a buffer below R still gets one step
		{Hello{DesiredDelay: 3, ClientBuffer: 1 << 30}, 5, 8, 3},
	} {
		delay, buffer := NegotiateSession(tc.hello, tc.rate, tc.maxDelay)
		if delay != tc.wantDelay || buffer != tc.rate*delay {
			t.Errorf("%+v R=%d maxD=%d: D=%d B=%d, want D=%d B=%d",
				tc.hello, tc.rate, tc.maxDelay, delay, buffer, tc.wantDelay, tc.rate*tc.wantDelay)
		}
	}

	rng := rand.New(rand.NewSource(3))
	field := func() uint32 { // small values, boundary values and arbitrary ones
		switch rng.Intn(3) {
		case 0:
			return uint32(rng.Intn(300))
		case 1:
			return []uint32{0, 1, math.MaxInt32, math.MaxUint32}[rng.Intn(4)]
		}
		return rng.Uint32()
	}
	for i := 0; i < 20000; i++ {
		h := Hello{ClientBuffer: field(), DesiredDelay: field()}
		rate, maxDelay := 1+rng.Intn(1<<uint(rng.Intn(20))), 1+rng.Intn(1<<uint(rng.Intn(10)))
		delay, buffer := NegotiateSession(h, rate, maxDelay)
		if delay < 1 || delay > maxDelay || buffer != rate*delay {
			t.Fatalf("%+v R=%d maxD=%d: D=%d B=%d breaks 1 <= D <= maxD, B = R*D", h, rate, maxDelay, delay, buffer)
		}
		if cb := int(h.ClientBuffer); cb >= rate && buffer > cb {
			t.Fatalf("%+v R=%d maxD=%d: B=%d exceeds the client's buffer", h, rate, maxDelay, buffer)
		}
		if want := int(h.DesiredDelay); want >= 1 && want <= maxDelay && delay > want {
			t.Fatalf("%+v R=%d maxD=%d: D=%d exceeds the desired delay", h, rate, maxDelay, delay)
		}
	}
}
