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
// # One codec
//
// Every message has one encoder and one decoder. appendMsg encodes each
// message type; Decoder.Parse frames and decodes the first message in a
// byte slice, and says how many bytes to supply when the slice holds only
// a prefix. Everything else is a caller of those two:
//
//   - Encoder accumulates every message of one model step in a reused
//     buffer and hands the whole batch to the writer in a single Write
//     call (one syscall per step instead of one per message).
//   - Msg.WriteTo writes one message through a pooled staging buffer;
//     WriteHello, WriteAccept and WriteEnd are one-line callers of it.
//   - A reactor-style reader (the load generator's shard) calls Parse on
//     the bytes it has read, with no reader and no copy.
//   - Decoder.Next and ReadMsg read from an io.Reader exactly the bytes
//     Parse asks for, never past the message they return.
//
// # Aliasing contract
//
// The hot wire paths are allocation-free in steady state. The Msg that
// Parse or Next returns points into decoder state that the next call
// overwrites, and its Data.Payload aliases the decoded bytes: Parse's
// input, or Next's reused read buffer. Callers that retain a message
// across calls must copy (the receive loop retains nothing: it checks
// each payload chunk in place and hands the window only its length; its
// per-slice callback sees the message under the same contract). ReadMsg
// returns fresh memory the caller owns.
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
// Encoding.
// ---------------------------------------------------------------------------

// appendMsg appends the wire form of m, the one encoder every writer goes
// through: its first set field picks the message, and an empty Msg or a
// payload beyond MaxPayload is an error that leaves buf unchanged. A new
// message type is one case here and one in Decoder.parse.
//
//smoothvet:noalloc
func appendMsg(buf []byte, m Msg) ([]byte, error) {
	switch {
	case m.Hello != nil:
		h := m.Hello
		buf = append(buf, msgHello)
		buf = binary.BigEndian.AppendUint32(buf, Magic)
		buf = binary.BigEndian.AppendUint32(buf, Version)
		buf = binary.BigEndian.AppendUint32(buf, h.ClientBuffer)
		buf = binary.BigEndian.AppendUint32(buf, h.DesiredDelay)
	case m.Accept != nil:
		a := m.Accept
		buf = append(buf, msgAccept)
		buf = binary.BigEndian.AppendUint32(buf, a.Rate)
		buf = binary.BigEndian.AppendUint32(buf, a.Delay)
		buf = binary.BigEndian.AppendUint32(buf, a.ServerBuffer)
		buf = binary.BigEndian.AppendUint32(buf, a.StepMicros)
	case m.Data != nil:
		d := m.Data
		if len(d.Payload) > MaxPayload {
			return buf, fmt.Errorf("netstream: payload %d exceeds limit %d", len(d.Payload), MaxPayload)
		}
		buf = append(buf, msgData)
		buf = binary.BigEndian.AppendUint32(buf, d.StreamID)
		buf = binary.BigEndian.AppendUint32(buf, d.SliceID)
		buf = binary.BigEndian.AppendUint32(buf, d.Arrival)
		buf = binary.BigEndian.AppendUint32(buf, d.Size)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(d.Weight))
		buf = binary.BigEndian.AppendUint32(buf, d.SendStep)
		buf = binary.BigEndian.AppendUint32(buf, d.Offset)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(d.Payload)))
		buf = append(buf, d.Payload...)
	case m.End:
		buf = append(buf, msgEnd)
	default:
		return buf, errors.New("netstream: encoding an empty Msg")
	}
	return buf, nil
}

// encBufPool holds the staging buffers of Msg.WriteTo, so a handshake or
// a sporadic standalone message does not allocate.
var encBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// maxPooledBuf caps the staging buffers retained by the pool (and the batch
// buffer retained by an Encoder across flushes): anything larger is left for
// the collector rather than pinned forever.
const maxPooledBuf = 1 << 20

// WriteTo writes the message's wire form to w with one Write call — a
// decoded message re-encodes byte-identical to its original bytes, so a
// proxy forwards a handshake verbatim: ReadMsg from one peer, WriteTo on
// the other. Exactly one of the Msg's fields must be set; a zero Msg is an
// error. The staging buffer comes from a shared pool, so writing a message
// does not allocate in steady state. Msg implements io.WriterTo.
func (m Msg) WriteTo(w io.Writer) (int64, error) {
	bp := encBufPool.Get().(*[]byte)
	buf, err := appendMsg((*bp)[:0], m)
	n := 0
	if err == nil {
		n, err = w.Write(buf)
	}
	if cap(buf) <= maxPooledBuf {
		*bp = buf[:0]
	}
	encBufPool.Put(bp)
	return int64(n), err
}

// WriteHello writes a Hello message.
func WriteHello(w io.Writer, h Hello) error { _, err := (Msg{Hello: &h}).WriteTo(w); return err }

// WriteAccept writes an Accept message.
func WriteAccept(w io.Writer, a Accept) error { _, err := (Msg{Accept: &a}).WriteTo(w); return err }

// WriteEnd writes the end-of-stream marker.
func WriteEnd(w io.Writer) error { _, err := (Msg{End: true}).WriteTo(w); return err }

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
	var err error
	e.buf, err = appendMsg(e.buf, Msg{Data: d})
	return err
}

// PutEnd appends the end-of-stream marker to the batch.
func (e *Encoder) PutEnd() { e.buf, _ = appendMsg(e.buf, Msg{End: true}) }

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

// Decoder decodes protocol messages into reused state, so a steady-state
// receive loop allocates nothing per message. Parse decodes from bytes the
// caller holds; Next reads from the decoder's reader into one reused
// buffer. The zero Decoder is ready for Parse.
//
// Aliasing contract: the Msg that Parse or Next returns — Msg.Hello,
// Msg.Accept, Msg.Data — points into decoder state that the next call
// overwrites, and Msg.Data.Payload aliases the bytes it was decoded from:
// Parse's buf, or Next's reused buffer. Retain across calls only by
// copying. A Decoder is not safe for concurrent use.
type Decoder struct {
	r      io.Reader
	buf    []byte // Next's read buffer
	hello  Hello
	accept Accept
	data   Data
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Parse frames and decodes the first message in buf. It returns the
// message and its encoded length n (tag byte included) when buf holds all
// of it; when n > len(buf), buf holds only a prefix and the caller must
// supply at least n bytes before the message can be decoded (n may grow
// again once the payload length is known). It errors on an unknown tag, a
// Hello with the wrong magic or version, and a payload length beyond
// MaxPayload — before the caller has buffered it. See the Decoder
// aliasing contract; Data.Payload aliases buf.
//
//smoothvet:aliased
//smoothvet:noalloc
func (dec *Decoder) Parse(buf []byte) (Msg, int, error) {
	m, n, _, err := dec.parse(buf)
	return m, n, err
}

// parse is Parse plus the name of the part a prefix of buf stops in, for
// Next's truncation errors. This switch is the protocol's one decoder. It
// and read return memory under the Decoder aliasing contract, which their
// exported callers declare.
//
//smoothvet:noalloc
func (dec *Decoder) parse(buf []byte) (Msg, int, string, error) {
	if len(buf) == 0 {
		return Msg{}, 1, "", nil
	}
	be := binary.BigEndian
	switch buf[0] {
	case msgHello:
		const n = 1 + helloBodyLen
		if len(buf) < n {
			return Msg{}, n, "hello", nil
		}
		if be.Uint32(buf[1:]) != Magic || be.Uint32(buf[5:]) != Version {
			return Msg{}, n, "hello", ErrBadMagic
		}
		dec.hello = Hello{ClientBuffer: be.Uint32(buf[9:]), DesiredDelay: be.Uint32(buf[13:])}
		return Msg{Hello: &dec.hello}, n, "hello", nil
	case msgAccept:
		const n = 1 + acceptBodyLen
		if len(buf) < n {
			return Msg{}, n, "accept", nil
		}
		dec.accept = Accept{Rate: be.Uint32(buf[1:]), Delay: be.Uint32(buf[5:]),
			ServerBuffer: be.Uint32(buf[9:]), StepMicros: be.Uint32(buf[13:])}
		return Msg{Accept: &dec.accept}, n, "accept", nil
	case msgData:
		if len(buf) < dataHead {
			return Msg{}, dataHead, "data header", nil
		}
		size := be.Uint32(buf[dataHead-4:])
		if size > MaxPayload {
			return Msg{}, dataHead, "data header", fmt.Errorf("netstream: payload length %d exceeds limit %d", size, MaxPayload)
		}
		// The head is decoded as soon as it is in, so read need not parse
		// the message again once the payload follows.
		d := &dec.data
		d.StreamID = be.Uint32(buf[1:])
		d.SliceID = be.Uint32(buf[5:])
		d.Arrival = be.Uint32(buf[9:])
		d.Size = be.Uint32(buf[13:])
		d.Weight = math.Float64frombits(be.Uint64(buf[17:]))
		d.SendStep = be.Uint32(buf[25:])
		d.Offset = be.Uint32(buf[29:])
		n := dataHead + int(size)
		if len(buf) < n {
			return Msg{}, n, dataPayload, nil
		}
		d.Payload = buf[dataHead:n:n]
		return Msg{Data: d}, n, dataPayload, nil
	case msgEnd:
		return Msg{End: true}, 1, "end", nil
	default:
		return Msg{}, 1, "", fmt.Errorf("netstream: unknown message tag %d", buf[0])
	}
}

// dataHead is a Data message's encoded length up to its payload: tag,
// fixed fields and the payload length. dataPayload names the part a Data
// message lacks when parse has its head and asks for more.
const (
	dataHead    = 1 + dataHeadLen + 4
	dataPayload = "data payload"
)

// Next reads and decodes the next message, reading exactly the bytes
// Parse asks for: it never consumes past the message it returns, so a
// caller may hand the reader on (a handshake read before the socket is
// adopted, say). See the Decoder aliasing contract. io.EOF is returned
// verbatim only at a clean message boundary; truncation inside a message
// yields a descriptive error wrapping io.ErrUnexpectedEOF.
//
//smoothvet:aliased
//smoothvet:noalloc
func (dec *Decoder) Next() (Msg, error) { return dec.read() }

// read is Next's exact-length loop: it asks parse how many bytes the
// message needs, reads up to that count into dec.buf, and asks again —
// except after a Data payload: parse framed the message and decoded its
// head already.
//
//smoothvet:noalloc
func (dec *Decoder) read() (Msg, error) {
	have, n, what := 0, 1, ""
	for {
		if cap(dec.buf) < n {
			grown := make([]byte, max(n, 64)) // len == cap throughout
			copy(grown, dec.buf[:have])
			dec.buf = grown
		}
		if _, err := io.ReadFull(dec.r, dec.buf[have:n]); err != nil {
			if have == 0 {
				return Msg{}, err
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Msg{}, fmt.Errorf("netstream: truncated %s: %w", what, err)
		}
		have = n
		if what == dataPayload {
			dec.data.Payload = dec.buf[dataHead:have:have]
			return Msg{Data: &dec.data}, nil
		}
		m, need, part, err := dec.parse(dec.buf[:have])
		if err != nil || need <= have {
			return m, err
		}
		n, what = need, part
	}
}

// ReadMsg reads and decodes the next message exactly as Decoder.Next does,
// but the returned message owns its memory; use a Decoder on hot receive
// loops.
func ReadMsg(r io.Reader) (Msg, error) { return NewDecoder(r).read() }
