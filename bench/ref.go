package main

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/netstream"
	"repro/internal/stream"
	"repro/internal/trace"
)

// clientDelay is the smoothing delay every benchmark client asks for, in
// steps; clientBuffer 0 advertises an unlimited client buffer.
const (
	clientDelay  = 8
	clientBuffer = 0
)

// reorderSlack mirrors loadgen's receive-window slack, so the reference
// playout count is computed over the same window the client engine uses.
const reorderSlack = 8

// refMsg is one data message of the reference stream, decoded.
type refMsg struct {
	slice, arrival, size, offset, step uint32
	payload                            []byte
}

// reference is what one session of the workload must look like: the wire
// stream a single netstream.Sender emits for the clip at the negotiated
// parameters, and the per-session totals a client decoding it reports.
// It is built during set-up without the serving engine, the cohort cache
// or the client engine, so it checks all three.
type reference struct {
	rate          int
	delay, buffer int
	offers        [][]netstream.Offered // per step, as the sender is fed
	wire          []byte                // every tick's flush back to back, End included
	msgs          []refMsg
	ticks         int // model steps the sender ran
	dropped       int // slices the smoothing buffer shed
	steps         int // highest send step + 1, as the client counts
	bytes         int64
	played        int
	digest        uint64
}

// genClip makes the workload's clip from the seed.
func genClip(frames int, seed int64) (*trace.Clip, error) {
	cfg := trace.DefaultGenConfig()
	cfg.Frames = frames
	cfg.Seed = seed
	return trace.Generate(cfg)
}

// clipRate is the link rate every network workload provisions: 1.1 times
// the clip's average rate, the regime where nothing has to be dropped.
func clipRate(clip *trace.Clip) int {
	r := int(1.1 * clip.AverageRate())
	if r < 1 {
		r = 1
	}
	return r
}

// buildOffers pairs every step's arriving slices with their synthesized
// payloads, once, the way the serving engine does at construction.
func buildOffers(st *stream.Stream) [][]netstream.Offered {
	offers := make([][]netstream.Offered, st.Horizon()+1)
	for step := range offers {
		for _, sl := range st.ArrivalsAt(step) {
			offers[step] = append(offers[step], netstream.Offered{Slice: sl, Payload: netstream.SynthPayload(sl.ID, sl.Size)})
		}
	}
	return offers
}

// recordSender replays one whole session through a netstream.Sender into
// wire and returns the tick count and the drop count.
func recordSender(wire *bytes.Buffer, offers [][]netstream.Offered, rate, delay, buffer int) (ticks, dropped int, err error) {
	snd, err := netstream.NewSender(wire, netstream.SenderConfig{
		ServerBuffer: buffer, Rate: rate, Delay: delay, Policy: drop.Greedy,
	})
	if err != nil {
		return 0, 0, err
	}
	for step := 0; step < len(offers) || snd.Backlog() > 0; step++ {
		var arrivals []netstream.Offered
		if step < len(offers) {
			arrivals = offers[step]
		}
		ts, err := snd.Tick(arrivals)
		if err != nil {
			return 0, 0, err
		}
		dropped += len(ts.Dropped)
		ticks++
	}
	return ticks, dropped, netstream.WriteEnd(wire)
}

// FNV-1a over little-endian uint32s, the fold loadgen's Config.Digest
// applies to (slice, send step, offset, payload length) of every message.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvFold(h uint64, v uint32) uint64 {
	for i := 0; i < 4; i++ {
		h ^= uint64(v & 0xff)
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// buildReference records the reference stream for the clip and decodes it
// the way a client would.
func buildReference(clip *trace.Clip) (*reference, error) {
	st, err := trace.WholeFrameStream(clip, trace.PaperWeights())
	if err != nil {
		return nil, err
	}
	ref := &reference{rate: clipRate(clip), digest: fnvOffset64}
	ref.delay, ref.buffer = netstream.NegotiateSession(
		netstream.Hello{ClientBuffer: clientBuffer, DesiredDelay: clientDelay}, ref.rate, 64)
	ref.offers = buildOffers(st)
	var wire bytes.Buffer
	ref.ticks, ref.dropped, err = recordSender(&wire, ref.offers, ref.rate, ref.delay, ref.buffer)
	if err != nil {
		return nil, err
	}
	ref.wire = wire.Bytes()
	var win core.RecvWindow
	win.Reset(ref.delay, reorderSlack)
	dec := netstream.NewDecoder(bytes.NewReader(ref.wire))
	for {
		m, err := dec.Next()
		if err != nil {
			return nil, fmt.Errorf("decoding the reference stream: %w", err)
		}
		if m.End {
			break
		}
		d := m.Data
		if d == nil {
			return nil, fmt.Errorf("reference stream holds a non-data message")
		}
		// The decoder reuses its payload scratch; keep a copy.
		ref.msgs = append(ref.msgs, refMsg{
			slice: d.SliceID, arrival: d.Arrival, size: d.Size, offset: d.Offset, step: d.SendStep,
			payload: append([]byte(nil), d.Payload...),
		})
		ref.bytes += int64(len(d.Payload))
		if int(d.SendStep)+1 > ref.steps {
			ref.steps = int(d.SendStep) + 1
		}
		win.ResolveTo(int(d.SendStep) - 1 - ref.delay)
		win.Ingest(int32(d.SliceID), int(d.Arrival), int32(d.Size), int32(len(d.Payload)))
		ref.digest = fnvFold(fnvFold(fnvFold(fnvFold(ref.digest, d.SliceID), d.SendStep), d.Offset), uint32(len(d.Payload)))
	}
	win.Finish()
	ref.played = win.Played()
	if win.Incomplete() != 0 || win.LateBytes() != 0 {
		return nil, fmt.Errorf("reference session misses playout at rate %d: %d incomplete slices, %d late bytes",
			ref.rate, win.Incomplete(), win.LateBytes())
	}
	return ref, nil
}
