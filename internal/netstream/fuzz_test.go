package netstream

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// FuzzReadMsg feeds arbitrary bytes to every wire decoder — the allocating
// ReadMsg, the reader-backed Decoder.Next and the in-place Decoder.Parse,
// the last fed the input in two chunks at every split point as a reactor
// reads it. They must never panic or over-allocate, must agree with each
// other message for message and error for error, must consume exactly the
// bytes of each message, and every message they accept must re-encode to
// exactly those bytes. Its committed corpus is testdata/fuzz/FuzzReadMsg.
func FuzzReadMsg(f *testing.F) {
	// Seed with each valid message type.
	var seed bytes.Buffer
	_ = WriteHello(&seed, Hello{ClientBuffer: 7, DesiredDelay: 3})
	helloBytes := append([]byte{}, seed.Bytes()...)
	f.Add(append([]byte{}, helloBytes...))
	seed.Reset()
	_ = WriteAccept(&seed, Accept{Rate: 1, Delay: 2, ServerBuffer: 2, StepMicros: 1000})
	f.Add(append([]byte{}, seed.Bytes()...))
	seed.Reset()
	_ = writeData(&seed, Data{SliceID: 1, Size: 2, Payload: []byte{1, 2}})
	dataBytes := append([]byte{}, seed.Bytes()...)
	f.Add(append([]byte{}, dataBytes...))
	f.Add([]byte{msgEnd})
	f.Add([]byte{msgData, 0xff, 0xff})
	f.Add([]byte{99, 1, 2, 3})
	// The codec error paths, as explicit corpus entries: truncated header,
	// bad magic, bad version, oversized length field, unknown tag.
	f.Add(append([]byte{}, helloBytes[:3]...))               // truncated hello header
	f.Add(append([]byte{}, dataBytes[:10]...))               // truncated data header
	f.Add(append([]byte{}, dataBytes[:len(dataBytes)-1]...)) // truncated payload
	f.Add(corrupt(helloBytes, 1))                            // bad magic
	f.Add(corrupt(helloBytes, 8))                            // bad version
	f.Add(oversizedData())                                   // length field > MaxPayload
	f.Add([]byte{0x7f})                                      // unknown tag, no body

	f.Fuzz(func(t *testing.T, input []byte) {
		// Parse first: a request beyond the largest legal message would
		// have the readers below allocate it.
		var dec Decoder
		for off := 0; off < len(input); {
			_, n, err := dec.Parse(input[off:])
			if n > maxMsgLen {
				t.Fatalf("offset %d: Parse asks for %d bytes, above the largest message (%d)", off, n, maxMsgLen)
			}
			if err != nil || n > len(input)-off {
				break
			}
			off += n
		}

		// The reference: ReadMsg until its first error, with each
		// message's length; Next must match it message for message and
		// read exactly as far.
		r := bytes.NewReader(input)
		dr := bytes.NewReader(input)
		next := NewDecoder(dr)
		var want []Msg
		var sizes []int
		var readErr error
		for {
			before := r.Len()
			msg, err := ReadMsg(r)
			dmsg, derr := next.Next()
			if (err == nil) != (derr == nil) {
				t.Fatalf("ReadMsg err %v but Decoder err %v", err, derr)
			}
			if r.Len() != dr.Len() {
				t.Fatalf("ReadMsg left %d bytes, Decoder.Next %d", r.Len(), dr.Len())
			}
			if err != nil {
				readErr = err
				break
			}
			if !msgEqual(msg, dmsg) {
				t.Fatalf("decoders disagree: %+v vs %+v", msg, dmsg)
			}
			if msg.Data != nil && len(msg.Data.Payload) > MaxPayload {
				t.Fatalf("decoder accepted %d-byte payload", len(msg.Data.Payload))
			}
			// Round-trip: the message re-encodes to exactly the bytes it
			// was read from.
			size := before - r.Len()
			var buf bytes.Buffer
			if n, err := msg.WriteTo(&buf); err != nil || int(n) != size {
				t.Fatalf("re-encoding %+v: %d bytes, err %v; it was read from %d", msg, n, err, size)
			}
			if !bytes.Equal(buf.Bytes(), input[len(input)-before:][:size]) {
				t.Fatalf("re-encoding %+v changed its bytes", msg)
			}
			want, sizes = append(want, msg), append(sizes, size)
		}

		// Parse at every split point: the bytes before the split arrive
		// first, the rest later, and an unconsumed tail waits for them.
		// Large inputs are split at a stride so one run stays quick.
		stride := max(1, len(input)/2048)
		for split := 0; split <= len(input); split += stride {
			off, i := 0, 0
			var err error
			for _, end := range []int{split, len(input)} {
				for err == nil {
					var m Msg
					var n int
					m, n, err = dec.Parse(input[off:end])
					if err != nil || n > end-off {
						break
					}
					if i == len(want) || n != sizes[i] || !msgEqual(m, want[i]) {
						t.Fatalf("split %d, message %d: Parse (%+v, %d) disagrees with ReadMsg", split, i, m, n)
					}
					off += n
					i++
				}
			}
			switch {
			case i != len(want):
				t.Fatalf("split %d: Parse decoded %d messages, ReadMsg %d (Parse err %v, ReadMsg err %v)", split, i, len(want), err, readErr)
			case readErr == io.EOF:
				if err != nil || off != len(input) {
					t.Fatalf("split %d: clean end, but Parse stopped at %d of %d with %v", split, off, len(input), err)
				}
			case errors.Is(readErr, io.ErrUnexpectedEOF):
				if err != nil || off == len(input) {
					t.Fatalf("split %d: ReadMsg found a truncated message, Parse stopped at %d of %d with %v", split, off, len(input), err)
				}
			default:
				if err == nil {
					t.Fatalf("split %d: ReadMsg failed with %v, Parse did not", split, readErr)
				}
			}
		}
	})
}

// maxMsgLen is the largest legal message: a Data head with a MaxPayload
// payload.
const maxMsgLen = 1 + dataHeadLen + 4 + MaxPayload

// FuzzReceiveStream feeds arbitrary bytes to the receive loop, as a
// single-stream and as a two-stream session: it must return statistics or
// an error — no panic, no hang, and memory in proportion to the input: the
// only number in a message that may size an allocation is the payload
// length, which the decoder holds to MaxPayload.
func FuzzReceiveStream(f *testing.F) {
	wire := func(end bool, msgs ...Data) []byte { return dataWire(f, end, msgs...).Bytes() }
	one := SynthPayload(1, 4)
	whole := wire(true,
		Data{SliceID: 1, Arrival: 0, Size: 4, SendStep: 0, Payload: one[:3]},
		Data{SliceID: 1, Arrival: 0, Size: 4, SendStep: 1, Offset: 3, Payload: one[3:]},
		Data{StreamID: 1, SliceID: 2, Arrival: 1, Size: 2, SendStep: 9, Payload: []byte{7, 7}})
	f.Add(whole)
	f.Add(whole[:len(whole)-1])                                                                   // no End
	f.Add(whole[:20])                                                                             // truncated header
	f.Add(whole[:dataHeadLen+6])                                                                  // truncated payload
	f.Add(wire(true, Data{StreamID: 5, SliceID: 1, Size: 1, Payload: []byte{1}}))                 // StreamID past streams
	f.Add(wire(true, Data{SliceID: 1, Size: 2, Offset: 1, Payload: []byte{1, 2}}))                // Offset+len > Size
	f.Add(wire(true, Data{SliceID: 1, Size: 0}))                                                  // Size = 0
	f.Add(wire(true, Data{SliceID: 1, Arrival: 1 << 30, Size: 1, Payload: []byte{1}}))            // Arrival > SendStep
	f.Add(wire(true, Data{SliceID: 1, Arrival: 1 << 30, SendStep: 1 << 30, Size: 1}))             // far frame, lawful
	f.Add(wire(true, Data{SliceID: 1, Size: 1}, Data{SliceID: 2, SendStep: 0xFFFFFFFF, Size: 1})) // SendStep = 0xFFFFFFFF
	f.Add(oversizedData())
	f.Add([]byte{msgHello})

	f.Fuzz(func(t *testing.T, input []byte) {
		for streams := 1; streams <= 2; streams++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			played := 0
			stats, err := ReceiveStream(bytes.NewReader(input), 3, streams, func(*Data) { played++ })
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxPayload+1<<20+64*uint64(len(input)) {
				t.Fatalf("streams=%d: %d input bytes cost %d bytes of allocation", streams, len(input), grew)
			}
			sum := StreamStats{}
			for _, ps := range stats.PerStream {
				sum.Played += ps.Played
				sum.Bytes += ps.Bytes
			}
			if stats.Played != played || sum.Played != played || sum.Bytes != stats.PlayedBytes {
				t.Fatalf("streams=%d: %d callbacks, stats %+v", streams, played, stats)
			}
			if err == nil && (stats.MaxBuffer > len(input) || stats.LateBytes > len(input) || stats.Incomplete > len(input)) {
				t.Fatalf("streams=%d: stats %+v out of %d input bytes", streams, stats, len(input))
			}
		}
	})
}

func msgEqual(a, b Msg) bool {
	switch {
	case a.Hello != nil:
		return b.Hello != nil && *a.Hello == *b.Hello
	case a.Accept != nil:
		return b.Accept != nil && *a.Accept == *b.Accept
	case a.Data != nil:
		if b.Data == nil {
			return false
		}
		x, y := a.Data, b.Data
		if !bytes.Equal(x.Payload, y.Payload) {
			return false
		}
		// NaN weights never compare equal even though the bit pattern
		// round-trips; treat two NaNs as matching.
		weightsMatch := x.Weight == y.Weight || (x.Weight != x.Weight && y.Weight != y.Weight)
		return weightsMatch &&
			x.SliceID == y.SliceID && x.Arrival == y.Arrival && x.Size == y.Size &&
			x.SendStep == y.SendStep && x.Offset == y.Offset
	default:
		return a.End && b.End
	}
}
