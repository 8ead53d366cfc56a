package netstream

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/stream"
)

// SenderConfig parameterizes a sending session.
type SenderConfig struct {
	// ServerBuffer is B in payload bytes. Required.
	ServerBuffer int
	// Rate is R in payload bytes per step. Required.
	Rate int
	// Delay is D; zero derives the lawful ceil(B/R).
	Delay int
	// Policy selects the drop policy (default drop.Greedy — the sender
	// knows slice weights, so value-aware dropping is the sensible
	// default per Section 4).
	Policy drop.Factory
}

// Sender pushes a stream of slices through a smoothing buffer onto a wire.
// Drive it step by step with Tick; the caller provides per-step arrivals
// and owns the clock (wall-clock pacing lives in the sharded engine of
// internal/serve).
//
// All Data messages emitted by one Tick are coalesced into a single Write
// call on the underlying writer (see Encoder), so a session costs one
// syscall per step regardless of how many slices it advances.
type Sender struct {
	enc      *Encoder
	server   *core.Server
	delay    int
	step     int
	payload  map[int][]byte // remaining payload per live slice
	sent     map[int]int    // bytes already sent per slice
	meta     map[int]stream.Slice
	streamOf map[int]int  // substream tag per live slice
	seen     map[int]bool // all slice IDs ever offered (uniqueness guard)
	scratch  []stream.Slice
}

// TickStats reports what one step did.
type TickStats struct {
	Step      int
	SentBytes int
	Dropped   []stream.Slice
	Occupancy int
}

// NewSender validates the config and returns a sender writing to w.
func NewSender(w io.Writer, cfg SenderConfig) (*Sender, error) {
	if cfg.ServerBuffer <= 0 || cfg.Rate <= 0 {
		return nil, fmt.Errorf("netstream: invalid sender config B=%d R=%d", cfg.ServerBuffer, cfg.Rate)
	}
	if cfg.Delay <= 0 {
		cfg.Delay = core.DelayFor(cfg.ServerBuffer, cfg.Rate)
	}
	policy := drop.Greedy
	if cfg.Policy != nil {
		policy = cfg.Policy
	}
	return &Sender{
		enc:      NewEncoder(w),
		server:   core.NewServer(cfg.ServerBuffer, cfg.Rate, policy(), core.ServerOptions{}),
		delay:    cfg.Delay,
		payload:  make(map[int][]byte),
		sent:     make(map[int]int),
		meta:     make(map[int]stream.Slice),
		streamOf: make(map[int]int),
		seen:     make(map[int]bool),
	}, nil
}

// Delay returns the session's smoothing delay D.
func (s *Sender) Delay() int { return s.delay }

// Step returns the current model step (the number of Ticks so far).
func (s *Sender) Step() int { return s.step }

// Backlog returns the bytes currently buffered.
func (s *Sender) Backlog() int { return s.server.Occupancy() }

// Offered pairs a slice with its payload bytes; len(Payload) must equal
// Slice.Size. StreamID tags the substream in multiplexed sessions (leave 0
// for single-stream use); slice IDs must be unique across the WHOLE
// session, not just within one substream — see Muxer.
type Offered struct {
	Slice    stream.Slice
	Payload  []byte
	StreamID int
}

// Tick advances one model step: the arrivals join the buffer, up to R
// payload bytes are framed and batched, and overflow is shed via the drop
// policy; the whole batch then goes to the wire in one Write. Slice IDs
// must be unique across the session.
//
//smoothvet:noalloc
func (s *Sender) Tick(arrivals []Offered) (TickStats, error) {
	s.scratch = s.scratch[:0]
	for _, a := range arrivals {
		if len(a.Payload) != a.Slice.Size {
			return TickStats{}, fmt.Errorf("netstream: slice %d payload %d bytes, size says %d",
				a.Slice.ID, len(a.Payload), a.Slice.Size)
		}
		if s.seen[a.Slice.ID] {
			return TickStats{}, fmt.Errorf("netstream: duplicate slice ID %d", a.Slice.ID)
		}
		s.seen[a.Slice.ID] = true
		s.scratch = append(s.scratch, a.Slice)
		s.payload[a.Slice.ID] = a.Payload
		s.meta[a.Slice.ID] = a.Slice
		s.streamOf[a.Slice.ID] = a.StreamID
	}
	res := s.server.Step(s.step, s.scratch)
	for _, b := range res.Sent {
		sl := s.meta[b.SliceID]
		off := s.sent[b.SliceID]
		chunk := s.payload[b.SliceID][:b.Bytes]
		s.payload[b.SliceID] = s.payload[b.SliceID][b.Bytes:]
		s.sent[b.SliceID] = off + b.Bytes
		err := s.enc.PutData(&Data{
			StreamID: uint32(s.streamOf[b.SliceID]),
			SliceID:  uint32(b.SliceID),
			Arrival:  uint32(sl.Arrival),
			Size:     uint32(sl.Size),
			Weight:   sl.Weight,
			SendStep: uint32(s.step),
			Offset:   uint32(off),
			Payload:  chunk,
		})
		if err != nil {
			return TickStats{}, err
		}
		if s.sent[b.SliceID] == sl.Size {
			delete(s.payload, b.SliceID)
			delete(s.sent, b.SliceID)
			delete(s.meta, b.SliceID)
			delete(s.streamOf, b.SliceID)
		}
	}
	for _, d := range res.Dropped {
		delete(s.payload, d.ID)
		delete(s.sent, d.ID)
		delete(s.meta, d.ID)
		delete(s.streamOf, d.ID)
	}
	// One Write per step: everything this step framed leaves together.
	if err := s.enc.Flush(); err != nil {
		return TickStats{}, err
	}
	s.step++
	// res.Dropped aliases a buffer the server reuses next Step; TickStats
	// outlives the step, so copy (drops are rare — usually nil).
	var dropped []stream.Slice
	if len(res.Dropped) > 0 {
		dropped = append(dropped, res.Dropped...)
	}
	return TickStats{
		Step:      s.step - 1,
		SentBytes: res.SentBytes,
		Dropped:   dropped,
		Occupancy: res.Occupancy,
	}, nil
}

// Drain ticks with no arrivals until the buffer empties, then writes the
// end-of-stream marker. It returns the number of drain steps.
func (s *Sender) Drain() (int, error) {
	steps := 0
	for !s.server.Empty() {
		if _, err := s.Tick(nil); err != nil {
			return steps, err
		}
		steps++
	}
	s.enc.PutEnd()
	return steps, s.enc.Flush()
}

// ReceivedSlice is a fully reassembled slice ready for playout.
type ReceivedSlice struct {
	ID       int
	StreamID int
	Arrival  int
	Size     int
	Weight   float64
	Payload  []byte
}

// PlayEvent reports one playout step at the receiver.
type PlayEvent struct {
	// Step is the receiver's model step.
	Step int
	// Slices are the complete slices played this step, in the order their
	// first bytes arrived on the wire — the sender's FIFO transmission
	// order, which for every sender in this package coincides with slice
	// ID order within a frame.
	Slices []ReceivedSlice
	// Incomplete counts slices of this frame that had bytes but were not
	// fully delivered by the deadline (they are discarded).
	Incomplete int
}

// Receiver reassembles slices from data messages and determines playout by
// the paper's rule: a slice sent in step s is available from step s; the
// playout of the frame with arrival a happens at step a+D (the transport's
// propagation is absorbed into the receiver's anchor, so P = 0 in model
// terms). Drive it with Ingest for each message and Play once per step.
type Receiver struct {
	delay int

	byFrame   map[int][]int // arrival -> slice IDs seen
	partial   map[int]*ReceivedSlice
	received  map[int]int
	watermark int // latest frame already resolved by Play
	lateBytes int
	occ       int
	maxOcc    int
}

// NewReceiver returns a receiver enforcing smoothing delay D.
func NewReceiver(delay int) (*Receiver, error) {
	if delay < 0 {
		return nil, fmt.Errorf("netstream: negative delay %d", delay)
	}
	return &Receiver{
		delay:     delay,
		byFrame:   make(map[int][]int),
		partial:   make(map[int]*ReceivedSlice),
		received:  make(map[int]int),
		watermark: -1,
	}, nil
}

// Occupancy returns the bytes currently buffered; MaxOccupancy the peak.
func (r *Receiver) Occupancy() int    { return r.occ }
func (r *Receiver) MaxOccupancy() int { return r.maxOcc }

// LateBytes returns the number of payload bytes that arrived after their
// frame's playout deadline and were discarded.
func (r *Receiver) LateBytes() int { return r.lateBytes }

// Ingest stores the bytes of one data message.
func (r *Receiver) Ingest(d *Data) error {
	id := int(d.SliceID)
	if int(d.Arrival) <= r.watermark {
		// Bytes of an already-resolved frame: too late, discard.
		r.lateBytes += len(d.Payload)
		return nil
	}
	p, ok := r.partial[id]
	if !ok {
		if d.Size == 0 || d.Size > MaxPayload {
			return fmt.Errorf("netstream: slice %d has invalid size %d", id, d.Size)
		}
		p = &ReceivedSlice{
			ID:       id,
			StreamID: int(d.StreamID),
			Arrival:  int(d.Arrival),
			Size:     int(d.Size),
			Weight:   d.Weight,
			Payload:  make([]byte, d.Size),
		}
		r.partial[id] = p
		r.byFrame[p.Arrival] = append(r.byFrame[p.Arrival], id)
	}
	if int(d.Offset)+len(d.Payload) > p.Size {
		return fmt.Errorf("netstream: slice %d bytes [%d, %d) beyond size %d",
			id, d.Offset, int(d.Offset)+len(d.Payload), p.Size)
	}
	copy(p.Payload[d.Offset:], d.Payload)
	r.received[id] += len(d.Payload)
	r.occ += len(d.Payload)
	return nil
}

// Play resolves the frame scheduled for the given (sender-clock) step:
// complete slices with arrival step-D are returned; incomplete ones are
// discarded, and any bytes of this frame arriving later will be dropped on
// ingest.
func (r *Receiver) Play(step int) PlayEvent {
	frame := step - r.delay
	ev := PlayEvent{Step: step}
	ids := r.byFrame[frame]
	delete(r.byFrame, frame)
	if frame > r.watermark {
		r.watermark = frame
	}
	// ids is already in wire-arrival order: byFrame appends on first byte
	// seen, and the server queue transmits FIFO — no per-tick sort needed.
	for _, id := range ids {
		p := r.partial[id]
		delete(r.partial, id)
		got := r.received[id]
		delete(r.received, id)
		r.occ -= got
		if got == p.Size {
			ev.Slices = append(ev.Slices, *p)
		} else {
			ev.Incomplete++
		}
	}
	// Peak occupancy is recorded at step boundaries (after playout), the
	// same end-of-step convention as the model's Bc(t) in Lemma 3.4;
	// mid-step, the buffer may transiently hold up to R extra bytes of
	// the frame being played this step.
	if r.occ > r.maxOcc {
		r.maxOcc = r.occ
	}
	return ev
}
