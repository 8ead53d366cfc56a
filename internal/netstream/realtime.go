package netstream

import (
	"fmt"
	"io"

	"repro/internal/core"
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
	x := synthSeed(uint32(id))
	for i := range p {
		x = synthNext(x)
		p[i] = byte(x)
	}
	return p
}

// SynthPayload's generator: an xorshift32 sequence seeded from the slice ID.
func synthSeed(id uint32) uint32 { return id*2654435761 + 1 }

func synthNext(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}

// synthMatches reports whether chunk equals SynthPayload(id, ·)[offset:],
// by running the generator past the chunk: no reassembly buffer and no
// reference payload, so a receive loop can verify content as it arrives.
func synthMatches(id uint32, offset int, chunk []byte) bool {
	x := synthSeed(id)
	for i := 0; i < offset; i++ {
		x = synthNext(x)
	}
	for _, b := range chunk {
		if x = synthNext(x); b != byte(x) {
			return false
		}
	}
	return true
}

// StreamStats is one substream's share of a receiving session: the complete
// slices played, their payload bytes, and the weight delivered.
type StreamStats struct {
	Played int
	Bytes  int
	Weight float64
}

// PlayStats summarizes a receiving session.
type PlayStats struct {
	// Played is the number of slices delivered complete by their frame's
	// play time; PlayedBytes their total payload.
	Played, PlayedBytes int
	// Incomplete is the number of slices discarded at their deadline.
	Incomplete int
	// LateBytes counts payload bytes that arrived after their deadline.
	LateBytes int
	// MaxBuffer is the receiver's peak buffer occupancy in bytes, recorded
	// at the end of every play step (at most B = R·D, Lemma 3.4).
	MaxBuffer int
	// Delay is the negotiated smoothing delay.
	Delay int
	// Corrupt counts data messages whose payload differs from
	// SynthPayload's bytes for that slice; only single-stream sessions are
	// verified (a multiplexed session's content is keyed by IDs the wire
	// does not carry).
	Corrupt int
	// PerStream splits Played and PlayedBytes by StreamID.
	PerStream []StreamStats
}

// Receive performs the client side of a session on conn: it sends a Hello
// that advertises an unlimited client buffer, reads Accept, then runs
// ReceiveStream under the negotiated delay.
func Receive(conn io.ReadWriter, desiredDelay, streams int, onPlay func(*Data)) (PlayStats, error) {
	hello := Hello{DesiredDelay: uint32(desiredDelay)}
	if err := WriteHello(conn, hello); err != nil {
		return PlayStats{}, err
	}
	msg, err := ReadMsg(conn)
	if err != nil {
		return PlayStats{}, err
	}
	if msg.Accept == nil {
		return PlayStats{}, fmt.Errorf("netstream: expected accept, got %+v", msg)
	}
	if err := msg.Accept.Check(hello); err != nil {
		return PlayStats{}, err
	}
	return ReceiveStream(conn, int(msg.Accept.Delay), streams, onPlay)
}

// ReceiveStream is the paper's timer-based client over the data messages of
// one session, single-stream (streams = 1, content verified) or multiplexed:
// a core.RecvWindow buffers what arrives, frame a plays at step a+D, and
// what misses its deadline is discarded. It anchors at the first message —
// no clock synchronization — and is driven by the *message* clock rather
// than the wall clock: frame a is resolved once a message with SendStep >
// a+D has been seen or the stream ended. On a paced sender this coincides
// with wall-clock playout but keeps tests and tools deterministic and fast.
//
// A slice is played exactly when its last byte is accepted into the window
// (an accepted byte's frame is unresolved, hence on time), so the loop
// credits the slice, and calls onPlay if non-nil, from the message in hand
// at that moment; d aliases decoder memory valid only during the call.
func ReceiveStream(r io.Reader, delay, streams int, onPlay func(d *Data)) (PlayStats, error) {
	if delay < 0 || streams < 1 {
		return PlayStats{}, fmt.Errorf("netstream: invalid delay %d or stream count %d", delay, streams)
	}
	stats := PlayStats{Delay: delay, PerStream: make([]StreamStats, streams)}
	var win core.RecvWindow
	win.Reset(delay, 1) // Data.Check keeps the live frames within D+1
	dec := NewDecoder(r)
	for {
		msg, err := dec.Next()
		if err != nil {
			return stats, fmt.Errorf("netstream: mid-stream: %w", err)
		}
		if msg.End {
			break
		}
		d := msg.Data
		if d == nil {
			return stats, fmt.Errorf("netstream: unexpected message %+v", msg)
		}
		if err := d.Check(); err != nil {
			return stats, fmt.Errorf("%w: slice %d at send step %d", err, d.SliceID, d.SendStep)
		}
		if int(d.StreamID) >= streams {
			return stats, fmt.Errorf("netstream: slice %d tagged with unknown stream %d", d.SliceID, d.StreamID)
		}
		if streams == 1 && !synthMatches(d.SliceID, int(d.Offset), d.Payload) {
			stats.Corrupt++
		}
		// Frames due strictly before this message's send step have reached
		// their playout deadline: resolve them, then ingest.
		win.ResolveTo(int(d.SendStep) - 1 - delay)
		if win.Ingest(int32(d.SliceID), int(d.Arrival), int32(d.Size), int32(len(d.Payload))) {
			stats.Played++
			stats.PlayedBytes += int(d.Size)
			ps := &stats.PerStream[d.StreamID]
			ps.Played++
			ps.Bytes += int(d.Size)
			ps.Weight += d.Weight
			if onPlay != nil {
				onPlay(d)
			}
		}
	}
	win.Finish() // stream over: everything buffered is due
	stats.Incomplete, stats.LateBytes, stats.MaxBuffer = win.Incomplete(), win.LateBytes(), win.MaxOccupancy()
	return stats, nil
}

// OfferStream converts a stream plus payload function into per-step offers;
// a convenience for tests and tools driving a Sender manually.
func OfferStream(st *stream.Stream, step int, payload func(stream.Slice) []byte) []Offered {
	var out []Offered
	for _, r := range st.RunsAt(step) {
		for id := r.First; id < r.End(); id++ {
			out = append(out, Offered{Slice: r.Slice(id), Payload: payload(r.Slice(id))})
		}
	}
	return out
}
