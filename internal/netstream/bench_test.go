package netstream

import (
	"io"
	"testing"

	"repro/internal/drop"
	"repro/internal/trace"
)

// rewindReader replays the same byte slice forever, so decode benchmarks
// never run out of input.
type rewindReader struct {
	buf []byte
	off int
}

func (r *rewindReader) Read(p []byte) (int, error) {
	if r.off == len(r.buf) {
		r.off = 0
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

// BenchmarkCodecEncodeDecode measures the steady-state wire codec: one
// batched encode (Encoder) plus one decode (Decoder) of a Data message.
// Both sides must be 0 allocs/op — the encoder appends into a reused batch
// buffer, the decoder reads each message into one reused buffer.
func BenchmarkCodecEncodeDecode(b *testing.B) {
	payload := SynthPayload(7, 1024)
	d := Data{StreamID: 1, SliceID: 7, Arrival: 3, Size: 1024, Weight: 12,
		SendStep: 5, Offset: 0, Payload: payload}

	b.Run("encode", func(b *testing.B) {
		enc := NewEncoder(io.Discard)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.PutData(&d); err != nil {
				b.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		var wire []byte
		wire, _ = appendMsg(wire, Msg{Data: &d})
		dec := NewDecoder(&rewindReader{buf: wire})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			msg, err := dec.Next()
			if err != nil {
				b.Fatal(err)
			}
			if msg.Data == nil || len(msg.Data.Payload) != len(payload) {
				b.Fatal("bad decode")
			}
		}
	})
	b.Run("roundtrip", func(b *testing.B) {
		var wire []byte
		wire, _ = appendMsg(wire, Msg{Data: &d})
		enc := NewEncoder(io.Discard)
		dec := NewDecoder(&rewindReader{buf: wire})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.PutData(&d); err != nil {
				b.Fatal(err)
			}
			if err := enc.Flush(); err != nil {
				b.Fatal(err)
			}
			if _, err := dec.Next(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSenderTick measures one sender model step in steady state —
// arrivals into the smoothing buffer, framing, and the batched flush to a
// discarding wire. The encode path allocates nothing; residual allocs/op
// come only from amortized map growth in the session's slice bookkeeping.
func BenchmarkSenderTick(b *testing.B) {
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 1000
	clip, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	st, err := trace.WholeFrameStream(clip, trace.PaperWeights())
	if err != nil {
		b.Fatal(err)
	}
	horizon := st.Horizon()
	rate := int(1.1 * st.AverageRate())
	payloads := make([][]byte, st.Len())
	for id := 0; id < st.Len(); id++ {
		payloads[id] = SynthPayload(id, st.Slice(id).Size)
	}
	newSender := func() *Sender {
		s, err := NewSender(io.Discard, SenderConfig{
			ServerBuffer: rate * 16, Rate: rate, Policy: drop.Greedy,
		})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	var offers []Offered
	b.ReportAllocs()
	b.ResetTimer()
	snd := newSender()
	t := 0
	for i := 0; i < b.N; i++ {
		if t > horizon && snd.Backlog() == 0 {
			// Stream exhausted and drained: restart on a fresh sender so
			// slice IDs never collide, without timing the rebuild.
			b.StopTimer()
			snd = newSender()
			t = 0
			b.StartTimer()
		}
		offers = offers[:0]
		if t <= horizon {
			for _, sl := range st.ArrivalsAt(t) {
				offers = append(offers, Offered{Slice: sl, Payload: payloads[sl.ID]})
			}
		}
		if _, err := snd.Tick(offers); err != nil {
			b.Fatal(err)
		}
		t++
	}
}
