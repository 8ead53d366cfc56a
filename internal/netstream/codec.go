// Package netstream carries smoothed real-time streams over a real
// transport (any io.ReadWriter; the cmd/smoothd and cmd/smoothplay tools
// use TCP). It is the system of Fig. 1 of the paper made concrete:
//
//   - the sender wraps core.Server: it buffers offered slices, transmits
//     FIFO at the negotiated rate each step (pacing), and discards slices
//     via a drop.Policy on overflow;
//   - the receiver (Receive, on core.RecvWindow) accounts slices and plays
//     frame t exactly D steps after its send step, anchored at the first
//     received message — the paper's clock-synchronization-free client
//     (Section 3.3);
//   - the handshake negotiates B, R and D so that B = R·D holds.
//
// The wire format is a simple length-delimited binary protocol
// (big-endian, stdlib encoding/binary), versioned and magic-tagged.
//
// # Encoding and aliasing contract
//
// The hot wire paths are allocation-free in steady state:
//
//   - Encoder accumulates every message of one model step in a reused
//     buffer and hands the whole batch to the writer in a single Write
//     call (one syscall per step instead of one per message).
//   - Decoder reuses a payload scratch buffer; the Msg it returns — in
//     particular Msg.Data and Msg.Data.Payload — aliases decoder-owned
//     memory that the next call overwrites. Callers that retain a message
//     across calls must copy (the receive loop retains nothing: it checks
//     each payload chunk in place and hands the window only its length;
//     its per-slice callback sees the message under the same contract).
//   - The one-shot WriteHello/WriteAccept/WriteData/WriteEnd helpers draw
//     their staging buffers from a sync.Pool, and ReadMsg returns fresh
//     memory the caller owns.
package netstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Protocol constants.
const (
	// Magic tags every Hello message.
	Magic = 0x534d5448 // "SMTH"
	// Version of the wire protocol. Version 2 added StreamID to Data
	// (multiplexed sessions).
	Version = 2
	// MaxPayload bounds a single data message's payload, as a defense
	// against corrupt length fields.
	MaxPayload = 16 << 20
	// MaxDelay bounds the smoothing delay, in steps, an Accept may name
	// when the Hello left the choice to the server (DesiredDelay 0). The
	// delay sizes the client's receive window, one slot per step.
	MaxDelay = 1 << 16
)

// Message type tags.
const (
	msgHello  = 1
	msgAccept = 2
	msgData   = 3
	msgEnd    = 4
)

// Fixed message body lengths (excluding the one-byte tag).
const (
	helloBodyLen  = 16
	acceptBodyLen = 16
	dataHeadLen   = 32 // fixed Data fields, before the payload length + bytes
)

// Hello is the client's opening message: it advertises its buffer and the
// smoothing delay it is willing to tolerate (Section 3.3's setup protocol:
// "the client and the server advertise their buffer size in the connection
// setup message; a client may also specify the desired latency").
type Hello struct {
	ClientBuffer uint32
	DesiredDelay uint32
}

// Accept is the server's reply fixing the session parameters, chosen so
// that B = R·D.
type Accept struct {
	Rate         uint32
	Delay        uint32
	ServerBuffer uint32
	// StepMicros is the wall-clock duration of one model step in
	// microseconds, for real-time pacing.
	StepMicros uint32
}

// Data carries a contiguous run of bytes of one slice sent in one step.
type Data struct {
	// StreamID identifies the substream in a multiplexed session
	// (0 for single-stream sessions). Slices of different substreams
	// share one smoothing buffer and one paced link — the statistical-
	// multiplexing deployment of package mux, on the wire.
	StreamID uint32
	SliceID  uint32
	Arrival  uint32
	Size     uint32
	Weight   float64
	// SendStep is the model step in which these bytes entered the link;
	// the receiver anchors its playout clock to it.
	SendStep uint32
	// Offset is the index of the first payload byte within the slice.
	Offset  uint32
	Payload []byte
}

// Msg is a decoded protocol message: exactly one field is non-nil/true.
type Msg struct {
	Hello  *Hello
	Accept *Accept
	Data   *Data
	End    bool
}

// ErrBadMagic reports a Hello with the wrong magic or version.
var ErrBadMagic = errors.New("netstream: bad magic or protocol version")

// ErrBadSlice reports a data message no sender emits; see Data.Check.
var ErrBadSlice = errors.New("netstream: data message with invalid size, offset or arrival")

// Check is the one validation every receive loop applies to a data message
// from the wire before accounting it: a positive size within MaxPayload,
// a chunk inside the slice, and Arrival <= SendStep — a slice cannot leave
// before it arrives, which with playout at Arrival+D bounds the frames a
// receive window holds at once to D+1.
//
//smoothvet:noalloc
func (d *Data) Check() error {
	if d.Size == 0 || d.Size > MaxPayload || uint64(d.Offset)+uint64(len(d.Payload)) > uint64(d.Size) || d.Arrival > d.SendStep {
		return ErrBadSlice
	}
	return nil
}

// Check validates an Accept against the Hello it answers. The step
// duration must be positive, and the delay may not exceed the one the
// Hello asked for (MaxDelay when it asked for none): the delay sizes the
// client's receive window, and a peer must not pick that size.
func (a Accept) Check(h Hello) error {
	limit := h.DesiredDelay
	if limit == 0 {
		limit = MaxDelay
	}
	if a.StepMicros == 0 {
		return errors.New("netstream: accept has zero step duration")
	}
	if a.Delay > limit {
		return fmt.Errorf("netstream: accept names delay %d, above the %d allowed", a.Delay, limit)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Append-style encoders (shared by Encoder and the pooled Write helpers).
// ---------------------------------------------------------------------------

//smoothvet:noalloc
func appendHello(buf []byte, h Hello) []byte {
	buf = append(buf, msgHello)
	buf = binary.BigEndian.AppendUint32(buf, Magic)
	buf = binary.BigEndian.AppendUint32(buf, Version)
	buf = binary.BigEndian.AppendUint32(buf, h.ClientBuffer)
	return binary.BigEndian.AppendUint32(buf, h.DesiredDelay)
}

//smoothvet:noalloc
func appendAccept(buf []byte, a Accept) []byte {
	buf = append(buf, msgAccept)
	buf = binary.BigEndian.AppendUint32(buf, a.Rate)
	buf = binary.BigEndian.AppendUint32(buf, a.Delay)
	buf = binary.BigEndian.AppendUint32(buf, a.ServerBuffer)
	return binary.BigEndian.AppendUint32(buf, a.StepMicros)
}

//smoothvet:noalloc
func appendData(buf []byte, d *Data) []byte {
	buf = append(buf, msgData)
	buf = binary.BigEndian.AppendUint32(buf, d.StreamID)
	buf = binary.BigEndian.AppendUint32(buf, d.SliceID)
	buf = binary.BigEndian.AppendUint32(buf, d.Arrival)
	buf = binary.BigEndian.AppendUint32(buf, d.Size)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(d.Weight))
	buf = binary.BigEndian.AppendUint32(buf, d.SendStep)
	buf = binary.BigEndian.AppendUint32(buf, d.Offset)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(d.Payload)))
	return append(buf, d.Payload...)
}

// encBufPool holds staging buffers for the one-shot Write helpers so a
// handshake or a sporadic standalone WriteData does not allocate.
var encBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// maxPooledBuf caps the staging buffers retained by the pool (and the batch
// buffer retained by an Encoder across flushes): anything larger is left for
// the collector rather than pinned forever.
const maxPooledBuf = 1 << 20

func writePooled(w io.Writer, fill func([]byte) []byte) error {
	bp := encBufPool.Get().(*[]byte)
	buf := fill((*bp)[:0])
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledBuf {
		*bp = buf[:0]
	}
	encBufPool.Put(bp)
	return err
}

// WriteHello writes a Hello message.
func WriteHello(w io.Writer, h Hello) error {
	return writePooled(w, func(buf []byte) []byte { return appendHello(buf, h) })
}

// WriteAccept writes an Accept message.
func WriteAccept(w io.Writer, a Accept) error {
	return writePooled(w, func(buf []byte) []byte { return appendAccept(buf, a) })
}

// WriteData writes a Data message.
func WriteData(w io.Writer, d Data) error {
	if len(d.Payload) > MaxPayload {
		return fmt.Errorf("netstream: payload %d exceeds limit %d", len(d.Payload), MaxPayload)
	}
	return writePooled(w, func(buf []byte) []byte { return appendData(buf, &d) })
}

// WriteEnd writes the end-of-stream marker.
func WriteEnd(w io.Writer) error {
	_, err := w.Write([]byte{msgEnd})
	return err
}

// ---------------------------------------------------------------------------
// Encoder: batched, allocation-free message encoding.
// ---------------------------------------------------------------------------

// Encoder accumulates encoded messages in one reused buffer and writes the
// whole batch with a single Write on Flush — the writev-style coalescing
// the serving engine relies on: all Data messages a session emits in one
// model step cost one syscall. Steady-state encoding allocates nothing.
//
// An Encoder is not safe for concurrent use.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an encoder batching writes to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// PutData appends a Data message to the batch. The payload bytes are copied
// into the batch buffer, so the caller may reuse them immediately.
//
//smoothvet:noalloc
func (e *Encoder) PutData(d *Data) error {
	if len(d.Payload) > MaxPayload {
		return fmt.Errorf("netstream: payload %d exceeds limit %d", len(d.Payload), MaxPayload)
	}
	e.buf = appendData(e.buf, d)
	return nil
}

// PutEnd appends the end-of-stream marker to the batch.
func (e *Encoder) PutEnd() { e.buf = append(e.buf, msgEnd) }

// Flush writes the batched messages with one Write call and resets the
// batch. Flushing an empty batch is a no-op.
//
//smoothvet:noalloc
func (e *Encoder) Flush() error {
	if len(e.buf) == 0 {
		return nil
	}
	_, err := e.w.Write(e.buf)
	if cap(e.buf) > maxPooledBuf {
		e.buf = nil // don't pin a pathological step forever
	} else {
		e.buf = e.buf[:0]
	}
	return err
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

func decodeHello(buf []byte) (Hello, error) {
	if binary.BigEndian.Uint32(buf[0:]) != Magic || binary.BigEndian.Uint32(buf[4:]) != Version {
		return Hello{}, ErrBadMagic
	}
	return Hello{
		ClientBuffer: binary.BigEndian.Uint32(buf[8:]),
		DesiredDelay: binary.BigEndian.Uint32(buf[12:]),
	}, nil
}

func decodeAccept(buf []byte) Accept {
	return Accept{
		Rate:         binary.BigEndian.Uint32(buf[0:]),
		Delay:        binary.BigEndian.Uint32(buf[4:]),
		ServerBuffer: binary.BigEndian.Uint32(buf[8:]),
		StepMicros:   binary.BigEndian.Uint32(buf[12:]),
	}
}

// decodeDataHead fills everything but the payload and returns the declared
// payload length.
//
//smoothvet:noalloc
func decodeDataHead(buf []byte, d *Data) (int, error) {
	n := binary.BigEndian.Uint32(buf[32:])
	if n > MaxPayload {
		return 0, fmt.Errorf("netstream: payload length %d exceeds limit %d", n, MaxPayload)
	}
	d.StreamID = binary.BigEndian.Uint32(buf[0:])
	d.SliceID = binary.BigEndian.Uint32(buf[4:])
	d.Arrival = binary.BigEndian.Uint32(buf[8:])
	d.Size = binary.BigEndian.Uint32(buf[12:])
	d.Weight = math.Float64frombits(binary.BigEndian.Uint64(buf[16:]))
	d.SendStep = binary.BigEndian.Uint32(buf[24:])
	d.Offset = binary.BigEndian.Uint32(buf[28:])
	return int(n), nil
}

// readBody reads a fixed-length message body, turning a mid-message EOF
// into a descriptive error (only a clean EOF before any tag byte is a
// legitimate end of stream).
//
//smoothvet:noalloc
func readBody(r io.Reader, buf []byte, what string) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("netstream: truncated %s: %w", what, err)
	}
	return nil
}

// Decoder reads protocol messages with reused decode state: one scratch
// buffer receives every Data payload, so a steady-state receive loop
// allocates nothing per message.
//
// Aliasing contract: the Msg returned by Next — including Msg.Hello,
// Msg.Accept, Msg.Data and Msg.Data.Payload — points into decoder-owned
// memory that the next Next call overwrites. Retain across calls only by
// copying. A Decoder is not safe for concurrent use.
type Decoder struct {
	r       io.Reader
	head    [36]byte
	hello   Hello
	accept  Accept
	data    Data
	scratch []byte
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// SizeNext reports the total encoded length — tag byte included — of the
// first message in buf, when buf holds enough bytes to determine it. It
// returns 0 (and no error) when more bytes are needed, and an error for an
// unknown tag or a payload length beyond MaxPayload. Reactor-style readers
// use it to feed a Decoder only complete messages, so a partial message
// split across reads is never mistaken for truncation.
//
//smoothvet:noalloc
func SizeNext(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	switch buf[0] {
	case msgHello:
		return 1 + helloBodyLen, nil
	case msgAccept:
		return 1 + acceptBodyLen, nil
	case msgData:
		if len(buf) < 1+dataHeadLen+4 {
			return 0, nil
		}
		n := binary.BigEndian.Uint32(buf[1+dataHeadLen:])
		if n > MaxPayload {
			return 0, fmt.Errorf("netstream: payload length %d exceeds limit %d", n, MaxPayload)
		}
		return 1 + dataHeadLen + 4 + int(n), nil
	case msgEnd:
		return 1, nil
	default:
		return 0, fmt.Errorf("netstream: unknown message tag %d", buf[0])
	}
}

// Next reads and decodes the next message. See the Decoder aliasing
// contract. io.EOF is returned verbatim only at a clean message boundary;
// truncation inside a message yields a descriptive error wrapping
// io.ErrUnexpectedEOF.
//
//smoothvet:aliased
//smoothvet:noalloc
func (dec *Decoder) Next() (Msg, error) {
	if _, err := io.ReadFull(dec.r, dec.head[:1]); err != nil {
		return Msg{}, err
	}
	switch dec.head[0] {
	case msgHello:
		if err := readBody(dec.r, dec.head[:helloBodyLen], "hello"); err != nil {
			return Msg{}, err
		}
		h, err := decodeHello(dec.head[:helloBodyLen])
		if err != nil {
			return Msg{}, err
		}
		dec.hello = h
		return Msg{Hello: &dec.hello}, nil
	case msgAccept:
		if err := readBody(dec.r, dec.head[:acceptBodyLen], "accept"); err != nil {
			return Msg{}, err
		}
		dec.accept = decodeAccept(dec.head[:acceptBodyLen])
		return Msg{Accept: &dec.accept}, nil
	case msgData:
		if err := readBody(dec.r, dec.head[:dataHeadLen+4], "data header"); err != nil {
			return Msg{}, err
		}
		n, err := decodeDataHead(dec.head[:dataHeadLen+4], &dec.data)
		if err != nil {
			return Msg{}, err
		}
		if cap(dec.scratch) < n {
			dec.scratch = make([]byte, n)
		}
		dec.data.Payload = dec.scratch[:n]
		if err := readBody(dec.r, dec.data.Payload, "data payload"); err != nil {
			return Msg{}, err
		}
		return Msg{Data: &dec.data}, nil
	case msgEnd:
		return Msg{End: true}, nil
	default:
		return Msg{}, fmt.Errorf("netstream: unknown message tag %d", dec.head[0])
	}
}

// WriteTo re-encodes the message onto w, byte-identical to its original
// wire form. Proxies use it to forward a decoded handshake message
// verbatim: ReadMsg from one peer, WriteTo on the other. Exactly one of
// the Msg's fields must be set; a zero Msg is an error. The staging
// buffer comes from the shared encoder pool, so forwarding a handshake
// does not allocate in steady state. Msg implements io.WriterTo.
func (m Msg) WriteTo(w io.Writer) (int64, error) {
	if m.Hello == nil && m.Accept == nil && m.Data == nil && !m.End {
		return 0, errors.New("netstream: WriteTo on an empty Msg")
	}
	if m.Data != nil && len(m.Data.Payload) > MaxPayload {
		return 0, fmt.Errorf("netstream: payload %d exceeds limit %d", len(m.Data.Payload), MaxPayload)
	}
	var n int
	err := writePooled(w, func(buf []byte) []byte {
		switch {
		case m.Hello != nil:
			buf = appendHello(buf, *m.Hello)
		case m.Accept != nil:
			buf = appendAccept(buf, *m.Accept)
		case m.Data != nil:
			buf = appendData(buf, m.Data)
		default:
			buf = append(buf, msgEnd)
		}
		n = len(buf)
		return buf
	})
	return int64(n), err
}

// ReadMsg reads and decodes the next message. Unlike Decoder.Next, the
// returned message owns its memory; use a Decoder on hot receive loops.
func ReadMsg(r io.Reader) (Msg, error) {
	var head [36]byte
	if _, err := io.ReadFull(r, head[:1]); err != nil {
		return Msg{}, err
	}
	switch head[0] {
	case msgHello:
		if err := readBody(r, head[:helloBodyLen], "hello"); err != nil {
			return Msg{}, err
		}
		h, err := decodeHello(head[:helloBodyLen])
		if err != nil {
			return Msg{}, err
		}
		return Msg{Hello: &h}, nil
	case msgAccept:
		if err := readBody(r, head[:acceptBodyLen], "accept"); err != nil {
			return Msg{}, err
		}
		a := decodeAccept(head[:acceptBodyLen])
		return Msg{Accept: &a}, nil
	case msgData:
		if err := readBody(r, head[:dataHeadLen+4], "data header"); err != nil {
			return Msg{}, err
		}
		d := &Data{}
		n, err := decodeDataHead(head[:dataHeadLen+4], d)
		if err != nil {
			return Msg{}, err
		}
		d.Payload = make([]byte, n)
		if err := readBody(r, d.Payload, "data payload"); err != nil {
			return Msg{}, err
		}
		return Msg{Data: d}, nil
	case msgEnd:
		return Msg{End: true}, nil
	default:
		return Msg{}, fmt.Errorf("netstream: unknown message tag %d", head[0])
	}
}
