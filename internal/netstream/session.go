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
	enc    *Encoder
	server *core.Server
	delay  int
	step   int
	// live holds every offer the server still stores, by slice ID: its
	// metadata, substream tag and payload, which Tick frames as the
	// server's range batches leave.
	live   map[int]Offered
	lastID int          // the highest slice ID offered so far
	runs   []stream.Run // this tick's arrivals, coalesced into runs
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
		enc:    NewEncoder(w),
		server: core.NewServer(cfg.ServerBuffer, cfg.Rate, policy(), core.ServerOptions{}),
		delay:  cfg.Delay,
		live:   make(map[int]Offered),
		lastID: -1,
	}, nil
}

// Delay returns the session's smoothing delay D.
func (s *Sender) Delay() int { return s.delay }

// Backlog returns the bytes currently buffered.
func (s *Sender) Backlog() int { return s.server.Occupancy() }

// Offered pairs a slice with its payload bytes; len(Payload) must equal
// Slice.Size. StreamID tags the substream in multiplexed sessions (leave 0
// for single-stream use); slice IDs must increase across the WHOLE
// session, not just within one substream — see Muxer.
type Offered struct {
	Slice    stream.Slice
	Payload  []byte
	StreamID int
}

// Tick advances one model step: the arrivals join the buffer, up to R
// payload bytes are framed and batched, and overflow is shed via the drop
// policy; the whole batch then goes to the wire in one Write. Slice IDs
// must increase strictly across the session. A tick whose arrivals fail
// validation changes nothing, so the caller may correct and retry it.
//
//smoothvet:noalloc
func (s *Sender) Tick(arrivals []Offered) (TickStats, error) {
	last := s.lastID
	for _, a := range arrivals {
		switch {
		case a.Slice.Size <= 0 || len(a.Payload) != a.Slice.Size:
			return TickStats{}, fmt.Errorf("netstream: slice %d payload %d bytes, size says %d",
				a.Slice.ID, len(a.Payload), a.Slice.Size)
		case a.Slice.ID <= last:
			return TickStats{}, fmt.Errorf("netstream: slice ID %d offered after ID %d", a.Slice.ID, last)
		}
		last = a.Slice.ID
	}
	s.lastID = last
	s.runs = s.runs[:0]
	for _, a := range arrivals {
		s.live[a.Slice.ID] = a
		sl := a.Slice
		if k := len(s.runs) - 1; k >= 0 && s.runs[k].End() == sl.ID &&
			s.runs[k].Arrival == sl.Arrival && s.runs[k].Size == sl.Size && s.runs[k].Weight == sl.Weight {
			s.runs[k].Count++
			continue
		}
		s.runs = append(s.runs, stream.Run{First: sl.ID, Count: 1, Arrival: sl.Arrival, Size: sl.Size, Weight: sl.Weight})
	}
	res := s.server.Step(s.step, s.runs)
	for _, b := range res.Sent {
		// One Data message per slice the batch touches.
		id, off := b.SliceID, b.Offset
		for left := b.Bytes; left > 0; id, off = id+1, 0 {
			n := min(left, b.Size-off)
			left -= n
			a := s.live[id]
			err := s.enc.PutData(&Data{
				StreamID: uint32(a.StreamID),
				SliceID:  uint32(id),
				Arrival:  uint32(a.Slice.Arrival),
				Size:     uint32(a.Slice.Size),
				Weight:   a.Slice.Weight,
				SendStep: uint32(s.step),
				Offset:   uint32(off),
				Payload:  a.Payload[off : off+n],
			})
			if err != nil {
				return TickStats{}, err
			}
			if off+n == a.Slice.Size {
				delete(s.live, id)
			}
		}
	}
	// TickStats outlives the step, so the dropped slices are copied out
	// (drops are rare — usually nil).
	var dropped []stream.Slice
	for _, d := range res.Dropped {
		for id := d.First; id < d.End(); id++ {
			dropped = append(dropped, s.live[id].Slice)
			delete(s.live, id)
		}
	}
	// One Write per step: everything this step framed leaves together.
	if err := s.enc.Flush(); err != nil {
		return TickStats{}, err
	}
	s.step++
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
