package netstream

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/drop"
	"repro/internal/stream"
)

// buildWire pumps a random stream through a Sender and returns the raw
// bytes plus the negotiated delay.
func buildWire(t *testing.T, seed int64) ([]byte, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := stream.NewBuilder()
	n := rng.Intn(40) + 5
	for i := 0; i < n; i++ {
		b.Add(rng.Intn(12), rng.Intn(5)+1, float64(rng.Intn(20)+1))
	}
	st := b.MustBuild()
	R := rng.Intn(3) + 1
	B := R * (rng.Intn(4) + st.MaxSliceSize())
	var wire bytes.Buffer
	snd := pump(t, st, SenderConfig{ServerBuffer: B, Rate: R, Policy: drop.Greedy}, &wire)
	return wire.Bytes(), snd.Delay()
}

// TestParseFramesWholeStream: Parse must frame a real sender's output
// message by message, agreeing with what ReadMsg decodes and consumes, and
// ask for more bytes — never erring, never past the message — at every
// proper prefix of each message.
func TestParseFramesWholeStream(t *testing.T) {
	wire, _ := buildWire(t, 21)
	reader := bytes.NewReader(wire)
	var dec Decoder
	off := 0
	for off < len(wire) {
		// A truncated prefix must never error: Parse reports a length
		// beyond the prefix and at most the message's own — the header's
		// end, or the true total once the header is complete — which
		// tells the caller to wait for more bytes.
		_, n, err := dec.Parse(wire[off:])
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if n <= 0 || n > len(wire)-off {
			t.Fatalf("offset %d: Parse returned %d on a complete stream", off, n)
		}
		for cut := 0; cut < n; cut++ {
			_, pn, perr := dec.Parse(wire[off : off+cut])
			if perr != nil || pn <= cut || pn > n {
				t.Fatalf("offset %d, prefix %d/%d: got (%d, %v), want (%d..%d, nil)", off, cut, n, pn, perr, cut+1, n)
			}
		}
		got, _, _ := dec.Parse(wire[off:])
		msg, err := ReadMsg(reader)
		if err != nil {
			t.Fatalf("offset %d: ReadMsg: %v", off, err)
		}
		if rem := reader.Len(); len(wire)-off-n != rem {
			t.Fatalf("offset %d: Parse says %d bytes, ReadMsg consumed %d", off, n, len(wire)-off-rem)
		}
		if !msgEqual(msg, got) {
			t.Fatalf("offset %d: Parse %+v != ReadMsg %+v", off, got, msg)
		}
		off += n
		if msg.End && off != len(wire) {
			t.Fatalf("End mid-stream at offset %d of %d", off, len(wire))
		}
	}
}

func TestParseErrors(t *testing.T) {
	var dec Decoder
	if _, _, err := dec.Parse([]byte{0xff}); err == nil {
		t.Error("unknown tag accepted")
	}
	// A data head whose payload length exceeds MaxPayload must error
	// rather than asking the caller to buffer gigabytes.
	huge := make([]byte, 1+36+4)
	huge[0] = 3 // msgData
	huge[1+32] = 0xff
	huge[1+33] = 0xff
	huge[1+34] = 0xff
	huge[1+35] = 0xff
	if _, _, err := dec.Parse(huge); err == nil {
		t.Error("oversized payload length accepted")
	}
	if m, n, err := dec.Parse(nil); n != 1 || err != nil || m != (Msg{}) {
		t.Errorf("empty buffer: got (%+v, %d, %v), want a request for 1 byte", m, n, err)
	}
}

// TestDecoderReset: one decoder fed message by message with Parse on exact
// slices (the shard reactor's pattern) must decode the same sequence as a
// fresh decoder reading the whole stream, with each payload aliasing the
// slice it came from.
func TestDecoderReset(t *testing.T) {
	wire, _ := buildWire(t, 22)
	whole := NewDecoder(bytes.NewReader(wire))

	var pieced Decoder
	off := 0
	for {
		want, werr := whole.Next()
		if werr != nil {
			t.Fatalf("offset %d: Next: %v", off, werr)
		}
		got, n, gerr := pieced.Parse(wire[off:])
		if gerr != nil || n > len(wire)-off {
			t.Fatalf("offset %d: Parse (%d, %v)", off, n, gerr)
		}
		if !msgEqual(want, got) {
			t.Fatalf("offset %d: data mismatch: %+v vs %+v", off, want, got)
		}
		if got.Data != nil && len(got.Data.Payload) > 0 && &got.Data.Payload[0] != &wire[off+n-len(got.Data.Payload)] {
			t.Fatalf("offset %d: payload does not alias the parsed bytes", off)
		}
		off += n
		if want.End {
			break
		}
	}
	if off != len(wire) {
		t.Fatalf("consumed %d of %d bytes", off, len(wire))
	}
}
