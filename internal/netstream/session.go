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
