package netstream

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// decodeBoth decodes the same input with ReadMsg and Decoder.Next and
// checks the two paths fail (or succeed) identically.
func decodeBoth(t *testing.T, input []byte) (Msg, error) {
	t.Helper()
	m1, err1 := ReadMsg(bytes.NewReader(input))
	m2, err2 := NewDecoder(bytes.NewReader(input)).Next()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("ReadMsg err %v but Decoder err %v", err1, err2)
	}
	if err1 == nil && !msgEqual(m1, m2) {
		t.Fatalf("ReadMsg %+v != Decoder %+v", m1, m2)
	}
	return m1, err1
}

// TestCodecErrorPaths — every malformed input yields a descriptive error,
// never a panic, on both decode paths.
func TestCodecErrorPaths(t *testing.T) {
	valid := func(fill func(e *Encoder)) []byte {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		fill(e)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var hb bytes.Buffer
	if err := WriteHello(&hb, Hello{ClientBuffer: 7, DesiredDelay: 3}); err != nil {
		t.Fatal(err)
	}
	hello := hb.Bytes()
	data := valid(func(e *Encoder) {
		if err := e.PutData(&Data{SliceID: 1, Size: 4, Payload: []byte{1, 2, 3, 4}}); err != nil {
			t.Fatal(err)
		}
	})

	cases := []struct {
		name    string
		input   []byte
		wantSub string // substring the error message must contain
		wantErr error  // exact sentinel, when applicable
	}{
		{"empty input", nil, "", io.EOF},
		{"truncated hello header", hello[:3], "truncated hello", io.ErrUnexpectedEOF},
		{"truncated accept header", []byte{msgAccept, 1, 2}, "truncated accept", io.ErrUnexpectedEOF},
		{"truncated data header", data[:10], "truncated data header", io.ErrUnexpectedEOF},
		{"truncated data payload", data[:len(data)-2], "truncated data payload", io.ErrUnexpectedEOF},
		{"bad magic", corrupt(hello, 1), "", ErrBadMagic},
		{"bad version", corrupt(hello, 8), "", ErrBadMagic},
		{"oversized length field", oversizedData(), "exceeds limit", nil},
		{"unknown message type", []byte{0x7f, 1, 2, 3}, "unknown message tag 127", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeBoth(t, tc.input)
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Errorf("err = %v, want %v in the chain", err, tc.wantErr)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("err = %q, want substring %q", err, tc.wantSub)
			}
		})
	}
}

// writeData writes one Data message through Msg.WriteTo.
func writeData(w io.Writer, d Data) error {
	_, err := (Msg{Data: &d}).WriteTo(w)
	return err
}

// corrupt flips one byte of a copy of b.
func corrupt(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0xff
	return c
}

// oversizedData builds a data message whose length field exceeds
// MaxPayload: the decoder must reject it before allocating.
func oversizedData() []byte {
	var buf bytes.Buffer
	if err := writeData(&buf, Data{SliceID: 1, Size: 1, Payload: []byte{1}}); err != nil {
		panic(err)
	}
	b := buf.Bytes()
	for i := 1 + dataHeadLen; i < 1+dataHeadLen+4; i++ {
		b[i] = 0xff
	}
	return b
}

// TestWriteToRejectsOversizedPayload — the encode side enforces the same
// bound, on both the pooled writer and the batch encoder.
func TestWriteToRejectsOversizedPayload(t *testing.T) {
	big := Data{SliceID: 1, Size: MaxPayload + 1, Payload: make([]byte, MaxPayload+1)}
	cw := &countingWriter{}
	if n, err := (Msg{Data: &big}).WriteTo(cw); err == nil || n != 0 || cw.writes != 0 {
		t.Errorf("Msg.WriteTo wrote %d bytes in %d writes of an oversized payload, err %v", n, cw.writes, err)
	}
	e := NewEncoder(cw)
	if err := e.PutData(&big); err == nil {
		t.Error("Encoder accepted an oversized payload")
	}
	if err := e.Flush(); err != nil || cw.writes != 0 {
		t.Errorf("rejected message left bytes in the batch: %d writes, err %v", cw.writes, err)
	}
}

// TestEncoderBatchesIntoOneWrite — N messages flushed together reach the
// writer as a single Write call with byte-identical content to the
// message-at-a-time helpers.
func TestEncoderBatchesIntoOneWrite(t *testing.T) {
	var want bytes.Buffer
	for i := 0; i < 5; i++ {
		d := Data{SliceID: uint32(i), Size: 3, SendStep: uint32(i), Payload: []byte{byte(i), 1, 2}}
		if err := writeData(&want, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteEnd(&want); err != nil {
		t.Fatal(err)
	}

	cw := &countingWriter{}
	e := NewEncoder(cw)
	for i := 0; i < 5; i++ {
		d := Data{SliceID: uint32(i), Size: 3, SendStep: uint32(i), Payload: []byte{byte(i), 1, 2}}
		if err := e.PutData(&d); err != nil {
			t.Fatal(err)
		}
	}
	e.PutEnd()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Errorf("batch took %d Write calls, want 1", cw.writes)
	}
	if !bytes.Equal(cw.buf.Bytes(), want.Bytes()) {
		t.Error("batched bytes differ from per-message writes")
	}
	// Idempotent empty flush.
	if err := e.Flush(); err != nil || cw.writes != 1 {
		t.Errorf("empty flush wrote again (writes=%d, err=%v)", cw.writes, err)
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestDecoderReusesScratch — the decoder's aliasing contract: the payload
// of message k is overwritten by message k+1, and copying is required to
// retain it (the receive loop retains nothing).
func TestDecoderReusesScratch(t *testing.T) {
	var wire bytes.Buffer
	e := NewEncoder(&wire)
	if err := e.PutData(&Data{SliceID: 1, Size: 2, Payload: []byte{0xaa, 0xbb}}); err != nil {
		t.Fatal(err)
	}
	if err := e.PutData(&Data{SliceID: 2, Size: 2, Payload: []byte{0xcc, 0xdd}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&wire)
	m1, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	first := m1.Data.Payload
	m2, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &m2.Data.Payload[0] {
		t.Error("decoder allocated a fresh payload buffer per message")
	}
	if !bytes.Equal(first, []byte{0xcc, 0xdd}) {
		t.Error("scratch not overwritten — aliasing contract documentation is wrong")
	}
	// ReadMsg, by contrast, hands out caller-owned memory.
	wire.Reset()
	if err := writeData(&wire, Data{SliceID: 1, Size: 1, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if err := writeData(&wire, Data{SliceID: 2, Size: 1, Payload: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	r1, err := ReadMsg(&wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMsg(&wire); err != nil {
		t.Fatal(err)
	}
	if r1.Data.Payload[0] != 1 {
		t.Error("ReadMsg payload mutated by the next read")
	}
}

// TestDecoderStreamRoundTrip — a whole session transcript decodes to the
// same message sequence via Decoder as via ReadMsg.
func TestDecoderStreamRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	if err := WriteHello(&wire, Hello{ClientBuffer: 9, DesiredDelay: 4}); err != nil {
		t.Fatal(err)
	}
	if err := WriteAccept(&wire, Accept{Rate: 2, Delay: 4, ServerBuffer: 8, StepMicros: 1000}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d := Data{SliceID: uint32(i), Arrival: uint32(i / 2), Size: 5, Weight: float64(i),
			SendStep: uint32(i), Payload: []byte{byte(i), 1, 2, 3, 4}}
		if err := writeData(&wire, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteEnd(&wire); err != nil {
		t.Fatal(err)
	}
	transcript := wire.Bytes()

	dec := NewDecoder(bytes.NewReader(transcript))
	rd := bytes.NewReader(transcript)
	for i := 0; ; i++ {
		a, errA := dec.Next()
		b, errB := ReadMsg(rd)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("message %d: Decoder err %v, ReadMsg err %v", i, errA, errB)
		}
		if errA != nil {
			if errA != io.EOF || errB != io.EOF {
				t.Fatalf("message %d: non-EOF termination: %v / %v", i, errA, errB)
			}
			break
		}
		if !msgEqual(a, b) {
			t.Fatalf("message %d: Decoder %+v != ReadMsg %+v", i, a, b)
		}
	}
}

// TestMsgWriteToRoundTrip pins the proxy-forwarding contract: re-encoding
// a decoded message produces the exact bytes that were read, for every
// message type, so a front tier can relay a handshake verbatim.
func TestMsgWriteToRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	if err := WriteHello(&wire, Hello{ClientBuffer: 4096, DesiredDelay: 7}); err != nil {
		t.Fatal(err)
	}
	if err := WriteAccept(&wire, Accept{Rate: 300, Delay: 7, ServerBuffer: 2100, StepMicros: 40000}); err != nil {
		t.Fatal(err)
	}
	if err := writeData(&wire, Data{StreamID: 2, SliceID: 9, Arrival: 3, Size: 10,
		Weight: 1.5, SendStep: 4, Offset: 5, Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	if err := WriteEnd(&wire); err != nil {
		t.Fatal(err)
	}
	transcript := wire.Bytes()

	rd := bytes.NewReader(transcript)
	var rewritten bytes.Buffer
	for i := 0; ; i++ {
		m, err := ReadMsg(rd)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		n, err := m.WriteTo(&rewritten)
		if err != nil {
			t.Fatalf("message %d: WriteTo: %v", i, err)
		}
		if n <= 0 {
			t.Fatalf("message %d: WriteTo wrote %d bytes", i, n)
		}
		if m.End {
			break
		}
	}
	if !bytes.Equal(rewritten.Bytes(), transcript) {
		t.Fatalf("re-encoded transcript differs:\n got %x\nwant %x", rewritten.Bytes(), transcript)
	}
}

func TestMsgWriteToEmpty(t *testing.T) {
	var m Msg
	if _, err := m.WriteTo(io.Discard); err == nil {
		t.Fatal("WriteTo on empty Msg succeeded")
	}
}
