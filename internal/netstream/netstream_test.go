package netstream

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

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
	if err := writeData(&buf, d); err != nil {
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
	if err := writeData(&buf, Data{SliceID: 1, Size: 4, Payload: []byte{1, 2, 3, 4}}); err != nil {
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

// TestSenderTickAllOrNothing checks that a tick whose arrival list fails
// validation part way through registers none of it, so the corrected list
// can be retried, and that IDs out of order are an error, not a panic in
// the drop policy.
func TestSenderTickAllOrNothing(t *testing.T) {
	var buf bytes.Buffer
	s, err := NewSender(&buf, SenderConfig{ServerBuffer: 8, Rate: 2})
	if err != nil {
		t.Fatal(err)
	}
	offer := func(id, size, payload int) Offered {
		return Offered{Slice: stream.Slice{ID: id, Size: size, Weight: 1}, Payload: make([]byte, payload)}
	}
	if _, err := s.Tick([]Offered{offer(0, 1, 1), offer(1, 2, 1)}); err == nil {
		t.Fatal("payload size mismatch accepted")
	}
	if _, err := s.Tick([]Offered{offer(5, 1, 1), offer(3, 1, 1)}); err == nil {
		t.Fatal("decreasing slice IDs accepted")
	}
	ts, err := s.Tick([]Offered{offer(0, 1, 1), offer(1, 2, 2)})
	if err != nil {
		t.Fatalf("retry of the corrected tick: %v", err)
	}
	if ts.Step != 0 || ts.SentBytes != 2 || s.Backlog() != 1 {
		t.Errorf("retry: step %d, sent %d, backlog %d; want 0, 2, 1", ts.Step, ts.SentBytes, s.Backlog())
	}
	if _, err := s.Tick([]Offered{offer(1, 1, 1)}); err == nil {
		t.Error("slice ID offered twice accepted")
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

// TestEndToEndMatchesSimulation — the paper's invariants on the wire path:
// over 2000 random streams a bare Sender feeding ReceiveStream plays exactly
// the slices core.Simulate plays, with the same benefit, every one complete,
// on time and verified, inside the client buffer B = R·D (Lemma 3.4).
func TestEndToEndMatchesSimulation(t *testing.T) {
	// Peak buffers the deleted map-based Receiver reported for the trials
	// where RecvWindow used to under-report start-up occupancy, and an
	// FNV-1a digest of its (played, peak buffer) over all trials.
	receiverPeak := map[int]int{137: 11, 658: 16, 926: 11, 1004: 11, 1363: 13, 1747: 11, 1910: 13}
	const receiverDigest = 0xfd857259f8c2361f
	digest := fnv.New64a()
	atBound := 0

	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		b := stream.NewBuilder()
		n := rng.Intn(60) + 5
		for i := 0; i < n; i++ {
			size := rng.Intn(4) + 1
			b.Add(rng.Intn(10), size, float64(rng.Intn(20)+1))
		}
		st := b.MustBuild()
		R := rng.Intn(3) + 1
		B := R * (rng.Intn(4) + st.MaxSliceSize())

		var wire bytes.Buffer
		snd := pump(t, st, SenderConfig{ServerBuffer: B, Rate: R, Policy: drop.Greedy}, &wire)
		played := map[int]bool{}
		var benefit float64
		stats, err := ReceiveStream(&wire, snd.Delay(), 1, func(d *Data) {
			played[int(d.SliceID)] = true
			benefit += d.Weight
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		sim, err := core.Simulate(st, core.Config{ServerBuffer: B, Rate: R, Policy: drop.Greedy})
		if err != nil {
			t.Fatal(err)
		}
		wantPlayed := 0
		for id := 0; id < sim.Stream.Len(); id++ {
			o := sim.At(id)
			if o.Played() != played[id] {
				t.Fatalf("trial %d: slice %d played on the wire = %v, in the simulation = %v", trial, id, played[id], o.Played())
			}
			if o.Played() {
				wantPlayed++
			}
		}
		if stats.Played != wantPlayed || len(played) != wantPlayed || stats.PerStream[0].Played != wantPlayed {
			t.Fatalf("trial %d: wire played %d (%d distinct), simulation %d", trial, stats.Played, len(played), wantPlayed)
		}
		if math.Abs(benefit-sim.Benefit()) > 1e-9 || benefit != stats.PerStream[0].Weight {
			t.Fatalf("trial %d: wire benefit %v (stats %v) != sim benefit %v", trial, benefit, stats.PerStream[0].Weight, sim.Benefit())
		}
		if stats.Incomplete != 0 || stats.LateBytes != 0 || stats.Corrupt != 0 {
			t.Fatalf("trial %d: lossless wire, yet %+v", trial, stats)
		}
		if stats.MaxBuffer > B {
			t.Fatalf("trial %d: peak buffer %d exceeds B = %d", trial, stats.MaxBuffer, B)
		}
		if stats.MaxBuffer == B {
			atBound++
		}
		if want, ok := receiverPeak[trial]; ok && stats.MaxBuffer != want {
			t.Fatalf("trial %d: peak buffer %d, the map-based receiver reported %d", trial, stats.MaxBuffer, want)
		}
		fmt.Fprintf(digest, "%d,%d;", stats.Played, stats.MaxBuffer)
	}
	if got := digest.Sum64(); got != receiverDigest {
		t.Errorf("(played, peak buffer) digest %#x, the map-based receiver's was %#x", got, uint64(receiverDigest))
	}
	if atBound == 0 {
		t.Error("no trial filled the client buffer to exactly B; the bound check is vacuous")
	}
}

// dataWire encodes the messages, optionally followed by End.
func dataWire(t testing.TB, end bool, msgs ...Data) *bytes.Buffer {
	t.Helper()
	var wire bytes.Buffer
	for _, d := range msgs {
		if err := writeData(&wire, d); err != nil {
			t.Fatal(err)
		}
	}
	if end {
		if err := WriteEnd(&wire); err != nil {
			t.Fatal(err)
		}
	}
	return &wire
}

func TestReceiverLateBytesDiscarded(t *testing.T) {
	p := SynthPayload(0, 2)
	// D = 1: frame 0 plays at step 1, so at send step 5 its second byte is
	// late — discarded and counted, and the slice stays incomplete.
	stats, err := ReceiveStream(dataWire(t, true,
		Data{SliceID: 0, Arrival: 0, Size: 2, SendStep: 0, Offset: 0, Payload: p[:1]},
		Data{SliceID: 0, Arrival: 0, Size: 2, SendStep: 5, Offset: 1, Payload: p[1:]},
	), 1, 1, func(*Data) { t.Error("an incomplete slice was played") })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Played != 0 || stats.Incomplete != 1 || stats.LateBytes != 1 || stats.MaxBuffer != 1 || stats.Corrupt != 0 {
		t.Errorf("stats %+v, want 0 played, 1 incomplete, 1 late byte, peak buffer 1", stats)
	}
}

func TestReceiverBadMessages(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    Data
	}{
		{"zero size", Data{SliceID: 1, Size: 0}},
		{"size past MaxPayload", Data{SliceID: 1, Size: MaxPayload + 1}},
		{"chunk past the slice end", Data{SliceID: 2, Size: 2, Offset: 2, Payload: []byte{1}}},
		{"sent before it arrived", Data{SliceID: 3, Arrival: 4, SendStep: 3, Size: 1, Payload: []byte{1}}},
		{"frame 2^30", Data{SliceID: 4, Arrival: 1 << 30, SendStep: 7, Size: 1, Payload: []byte{1}}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReceiveStream(dataWire(t, true, tc.d), 2, 1, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadSlice) {
			t.Errorf("%s: err = %v, want ErrBadSlice", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: rejecting the message allocated %d bytes", tc.name, grew)
		}
	}
	if _, err := ReceiveStream(dataWire(t, true), -1, 1, nil); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := ReceiveStream(dataWire(t, false, Data{Size: 1, Payload: []byte{1}}), 2, 1, nil); !errors.Is(err, io.EOF) {
		t.Errorf("stream cut before End: err = %v, want EOF", err)
	}
	// A corrupt payload byte is counted, not fatal.
	stats, err := ReceiveStream(dataWire(t, true, Data{SliceID: 5, Size: 2, Payload: []byte{0, 0}}), 2, 1, nil)
	if err != nil || stats.Corrupt != 1 || stats.Played != 1 {
		t.Errorf("corrupt payload: %+v, %v; want 1 corrupt, 1 played", stats, err)
	}
}

// TestReceiveFarSendStep — one message claiming the last send step must cost
// a resolve clamped to the frames actually seen, not 2^32 playout steps.
func TestReceiveFarSendStep(t *testing.T) {
	start := time.Now()
	stats, err := ReceiveStream(dataWire(t, true,
		Data{SliceID: 0, Arrival: 0, Size: 1, SendStep: 0, Payload: SynthPayload(0, 1)},
		Data{SliceID: 1, Arrival: 1, Size: 1, SendStep: math.MaxUint32, Payload: SynthPayload(1, 1)},
	), 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Played != 1 || stats.LateBytes != 1 {
		t.Errorf("stats %+v, want slice 0 played and slice 1's byte late", stats)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("took %v", took)
	}
}

// TestAcceptCheck: the delay an Accept names is bounded by the one the
// Hello asked for, or by MaxDelay when it asked for none.
func TestAcceptCheck(t *testing.T) {
	for _, tc := range []struct {
		asked, delay, step uint32
		ok                 bool
	}{
		{8, 8, 1000, true},
		{8, 9, 1000, false},
		{8, 8, 0, false},
		{0, MaxDelay, 1000, true},
		{0, MaxDelay + 1, 1000, false},
	} {
		err := Accept{Delay: tc.delay, StepMicros: tc.step}.Check(Hello{DesiredDelay: tc.asked})
		if (err == nil) != tc.ok {
			t.Errorf("asked %d, accept delay %d step %d µs: err = %v", tc.asked, tc.delay, tc.step, err)
		}
	}
}

// TestReceiveHandshake — Receive's own part: Hello out, Accept in, and an
// Accept that is not one, or raises the delay asked for, ends the session.
func TestReceiveHandshake(t *testing.T) {
	for _, tc := range []struct {
		name   string
		accept func(w io.Writer) error
		ok     bool
	}{
		{"lawful", func(w io.Writer) error {
			return WriteAccept(w, Accept{Rate: 1, Delay: 4, ServerBuffer: 4, StepMicros: 1})
		}, true},
		{"delay raised", func(w io.Writer) error {
			return WriteAccept(w, Accept{Rate: 1, Delay: 1 << 30, ServerBuffer: 4, StepMicros: 1})
		}, false},
		{"no step duration", func(w io.Writer) error {
			return WriteAccept(w, Accept{Rate: 1, Delay: 4, ServerBuffer: 4})
		}, false},
		{"not an accept", WriteEnd, false},
	} {
		var conn struct {
			io.Reader
			io.Writer
		}
		var in, out bytes.Buffer
		conn.Reader, conn.Writer = &in, &out
		if err := tc.accept(&in); err != nil {
			t.Fatal(err)
		}
		if err := WriteEnd(&in); err != nil {
			t.Fatal(err)
		}
		stats, err := Receive(conn, 6, 1, nil)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v", tc.name, err)
		}
		if tc.ok && stats.Delay != 4 {
			t.Errorf("%s: delay %d, want the accepted 4", tc.name, stats.Delay)
		}
		if hello, err := ReadMsg(&out); err != nil || hello.Hello == nil || hello.Hello.DesiredDelay != 6 {
			t.Errorf("%s: client opened with %+v, %v", tc.name, hello, err)
		}
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
