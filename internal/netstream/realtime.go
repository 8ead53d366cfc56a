package netstream

import (
	"fmt"
	"io"

	"repro/internal/stream"
)

// NegotiateSession fixes the session parameters from a client Hello: the
// smoothing delay is the client's desired delay clamped to (0, maxDelay],
// and B = R·D — the paper's law — additionally capped by the client's
// advertised buffer (Section 3.3: making only one buffer bigger does not
// help). It returns the negotiated delay and server buffer.
func NegotiateSession(h Hello, rate, maxDelay int) (delay, buffer int) {
	delay = int(h.DesiredDelay)
	if delay <= 0 || delay > maxDelay {
		delay = maxDelay
	}
	buffer = rate * delay
	if cb := int(h.ClientBuffer); cb > 0 && buffer > cb {
		buffer = cb / rate * rate
		if buffer < rate {
			buffer = rate
		}
		delay = buffer / rate
	}
	return delay, buffer
}

// SynthPayload deterministically fills a payload of the given size for a
// slice ID, so receivers can verify content integrity end to end.
func SynthPayload(id, size int) []byte {
	p := make([]byte, size)
	x := uint32(id)*2654435761 + 1
	for i := range p {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p[i] = byte(x)
	}
	return p
}

// PlayStats summarizes a receiving session.
type PlayStats struct {
	// Played is the number of complete slices delivered to the playout
	// callback; PlayedBytes their total payload.
	Played, PlayedBytes int
	// Incomplete is the number of slices discarded at their deadline.
	Incomplete int
	// LateBytes counts payload bytes that arrived after their deadline.
	LateBytes int
	// MaxBuffer is the receiver's peak buffer occupancy in bytes.
	MaxBuffer int
	// Delay is the negotiated smoothing delay.
	Delay int
	// Corrupt counts played slices whose payload failed verification.
	Corrupt int
}

// Receive performs the client side of a session on conn: it sends Hello,
// reads Accept, then consumes data messages, anchoring its playout clock
// at the first one (the paper's timer-based client — no clock
// synchronization). onPlay, if non-nil, is invoked once per playout step.
//
// The playout clock is driven by the *message* clock rather than the wall
// clock: frame a plays once a message with SendStep >= a+D has been seen
// or the stream ended. On a paced sender this coincides with wall-clock
// playout but keeps tests and tools deterministic and fast.
func Receive(conn io.ReadWriter, clientBuffer, desiredDelay int, onPlay func(PlayEvent)) (PlayStats, error) {
	if err := WriteHello(conn, Hello{
		ClientBuffer: uint32(clientBuffer),
		DesiredDelay: uint32(desiredDelay),
	}); err != nil {
		return PlayStats{}, err
	}
	msg, err := ReadMsg(conn)
	if err != nil {
		return PlayStats{}, err
	}
	if msg.Accept == nil {
		return PlayStats{}, fmt.Errorf("netstream: expected accept, got %+v", msg)
	}
	delay := int(msg.Accept.Delay)
	rcv, err := NewReceiver(delay)
	if err != nil {
		return PlayStats{}, err
	}
	stats := PlayStats{Delay: delay}
	playUpTo := -1
	flush := func(step int) {
		for playUpTo < step {
			playUpTo++
			ev := rcv.Play(playUpTo)
			for _, sl := range ev.Slices {
				stats.Played++
				stats.PlayedBytes += sl.Size
				if !bytesEqual(sl.Payload, SynthPayload(sl.ID, sl.Size)) {
					stats.Corrupt++
				}
			}
			stats.Incomplete += ev.Incomplete
			if onPlay != nil && (len(ev.Slices) > 0 || ev.Incomplete > 0) {
				onPlay(ev)
			}
		}
	}
	// Decoder reuses one payload scratch buffer across messages; Ingest
	// copies the bytes out immediately, so the aliasing is safe and the
	// receive loop is allocation-free in steady state.
	dec := NewDecoder(conn)
	for {
		msg, err := dec.Next()
		if err != nil {
			return stats, fmt.Errorf("netstream: mid-stream: %w", err)
		}
		if msg.End {
			break
		}
		if msg.Data == nil {
			return stats, fmt.Errorf("netstream: unexpected message %+v", msg)
		}
		// All frames whose deadline precedes this send step are due.
		flush(int(msg.Data.SendStep) - 1)
		if err := rcv.Ingest(msg.Data); err != nil {
			return stats, err
		}
	}
	// Stream over: everything buffered is due.
	maxFrame := -1
	for a := range rcv.byFrame {
		if a > maxFrame {
			maxFrame = a
		}
	}
	flush(maxFrame + delay)
	stats.LateBytes = rcv.LateBytes()
	stats.MaxBuffer = rcv.MaxOccupancy()
	return stats, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// OfferStream converts a stream plus payload function into per-step offers;
// a convenience for tests and tools driving a Sender manually.
func OfferStream(st *stream.Stream, step int, payload func(stream.Slice) []byte) []Offered {
	var out []Offered
	for _, sl := range st.ArrivalsAt(step) {
		out = append(out, Offered{Slice: sl, Payload: payload(sl)})
	}
	return out
}
