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

// TestSizeNextFramesWholeStream: SizeNext must frame a real sender's
// output message by message, agreeing with what ReadMsg decodes, and
// report "incomplete" for every proper prefix of each message.
func TestSizeNextFramesWholeStream(t *testing.T) {
	wire, _ := buildWire(t, 21)
	reader := bytes.NewReader(wire)
	off := 0
	for off < len(wire) {
		n, err := SizeNext(wire[off:])
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if n <= 0 {
			t.Fatalf("offset %d: SizeNext returned %d on a complete stream", off, n)
		}
		// A truncated prefix must never error: SizeNext reports either 0
		// (length not yet determinable) or the true total length (header
		// complete) — both tell the caller to wait for more bytes.
		for _, cut := range []int{0, 1, n / 2, n - 1} {
			if cut >= n {
				continue
			}
			pn, perr := SizeNext(wire[off : off+cut])
			if perr != nil || (pn != 0 && pn != n) {
				t.Fatalf("offset %d, prefix %d/%d: got (%d, %v), want (0 or %d, nil)", off, cut, n, pn, perr, n)
			}
		}
		msg, err := ReadMsg(reader)
		if err != nil {
			t.Fatalf("offset %d: ReadMsg: %v", off, err)
		}
		if rem := reader.Len(); len(wire)-off-n != rem {
			t.Fatalf("offset %d: SizeNext says %d bytes, ReadMsg consumed %d", off, n, len(wire)-off-rem)
		}
		off += n
		if msg.End && off != len(wire) {
			t.Fatalf("End mid-stream at offset %d of %d", off, len(wire))
		}
	}
}

func TestSizeNextErrors(t *testing.T) {
	if _, err := SizeNext([]byte{0xff}); err == nil {
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
	if _, err := SizeNext(huge); err == nil {
		t.Error("oversized payload length accepted")
	}
	if n, err := SizeNext(nil); n != 0 || err != nil {
		t.Errorf("empty buffer: got (%d, %v)", n, err)
	}
}

// TestDecoderReset: one decoder fed message-by-message through a reused
// bytes.Reader (the shard reactor's pattern) must decode the same
// sequence as a fresh decoder over the whole stream.
func TestDecoderReset(t *testing.T) {
	wire, _ := buildWire(t, 22)
	whole := NewDecoder(bytes.NewReader(wire))

	var br bytes.Reader
	pieced := NewDecoder(&br)
	off := 0
	for {
		want, werr := whole.Next()
		n, err := SizeNext(wire[off:])
		if err != nil || n == 0 {
			t.Fatalf("offset %d: SizeNext (%d, %v)", off, n, err)
		}
		br.Reset(wire[off : off+n])
		got, gerr := pieced.Next()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("offset %d: error mismatch %v vs %v", off, werr, gerr)
		}
		off += n
		if want.End != got.End {
			t.Fatalf("offset %d: End mismatch", off)
		}
		if (want.Data == nil) != (got.Data == nil) {
			t.Fatalf("offset %d: Data presence mismatch", off)
		}
		if want.Data != nil {
			if want.Data.SliceID != got.Data.SliceID || want.Data.SendStep != got.Data.SendStep ||
				want.Data.Offset != got.Data.Offset || !bytes.Equal(want.Data.Payload, got.Data.Payload) {
				t.Fatalf("offset %d: data mismatch: %+v vs %+v", off, want.Data, got.Data)
			}
		}
		if want.End {
			break
		}
	}
	if off != len(wire) {
		t.Fatalf("consumed %d of %d bytes", off, len(wire))
	}
}
