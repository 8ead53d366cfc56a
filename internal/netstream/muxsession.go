package netstream

import (
	"fmt"
	"io"

	"repro/internal/stream"
	"repro/internal/trace"
)

// Muxer feeds several substreams into one Sender — the statistical-
// multiplexing deployment of package mux, on the wire: all substreams share
// one smoothing buffer and one paced link, and each data message carries
// its substream tag so the receiver can demultiplex.
//
// Slice IDs must be unique across the whole session; Muxer assigns them in
// global (arrival step, substream) order — the same interleaving mux.Merge
// uses — so that ID-based tie-breaking in drop policies treats every
// substream identically, and a wire session reproduces the mux.Shared
// simulation byte for byte.
type Muxer struct {
	streams []*stream.Stream
	ids     [][]int // ids[si][localID] = session ID
	horizon int
}

// NewMuxer wraps the substreams. At least one is required.
func NewMuxer(streams []*stream.Stream) (*Muxer, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("netstream: muxer needs at least one stream")
	}
	m := &Muxer{streams: streams, ids: make([][]int, len(streams))}
	for i, st := range streams {
		m.ids[i] = make([]int, st.Len())
		if st.Horizon() > m.horizon {
			m.horizon = st.Horizon()
		}
	}
	next := 0
	for step := 0; step <= m.horizon; step++ {
		for si, st := range streams {
			for _, r := range st.RunsAt(step) {
				for id := r.First; id < r.End(); id++ {
					m.ids[si][id] = next
					next++
				}
			}
		}
	}
	return m, nil
}

// Horizon returns the largest arrival step across the substreams.
func (m *Muxer) Horizon() int { return m.horizon }

// Offers returns the combined arrivals of all substreams at the given step,
// with session-unique slice IDs and StreamID tags. payload synthesizes the
// bytes for one slice of one substream.
func (m *Muxer) Offers(step int, payload func(streamIdx int, sl stream.Slice) []byte) []Offered {
	var out []Offered
	for si, st := range m.streams {
		for _, r := range st.RunsAt(step) {
			for id := r.First; id < r.End(); id++ {
				sl := r.Slice(id)
				tagged := sl
				tagged.ID = m.ids[si][id]
				out = append(out, Offered{
					Slice:    tagged,
					Payload:  payload(si, sl),
					StreamID: si,
				})
			}
		}
	}
	return out
}

// MuxOffers builds the whole offer table of a multiplexed session: clips
// become whole-frame streams under weights, are merged by a Muxer, and
// entry t holds the tagged arrivals of model step t with deterministically
// synthesized payloads. Built once, the table is read-only: ServeMux ticks a
// Sender through it, and serve.NewMux hands it to the sharded engine.
func MuxOffers(clips []*trace.Clip, weights trace.WeightMap) ([][]Offered, error) {
	streams := make([]*stream.Stream, len(clips))
	for i, c := range clips {
		st, err := trace.WholeFrameStream(c, weights)
		if err != nil {
			return nil, err
		}
		streams[i] = st
	}
	m, err := NewMuxer(streams)
	if err != nil {
		return nil, err
	}
	payload := func(si int, sl stream.Slice) []byte {
		return SynthPayload(sl.ID*31+si, sl.Size)
	}
	offers := make([][]Offered, m.Horizon()+1)
	for step := range offers {
		offers[step] = m.Offers(step, payload)
	}
	return offers, nil
}

// ServeMux runs a whole multiplexed session over w, unpaced: a bare Sender
// ticked through MuxOffers (paper weights) as fast as the writer accepts
// it, then the End marker. It is the reference the tests compare the
// serving engine's multiplexed sessions against; pacing onto a connection
// lives in internal/serve. It returns the sender's drop count.
func ServeMux(w io.Writer, clips []*trace.Clip, cfg SenderConfig) (dropped int, err error) {
	offers, err := MuxOffers(clips, trace.PaperWeights())
	if err != nil {
		return 0, err
	}
	snd, err := NewSender(w, cfg)
	if err != nil {
		return 0, err
	}
	for step := 0; step < len(offers) || snd.Backlog() > 0; step++ {
		var arrivals []Offered
		if step < len(offers) {
			arrivals = offers[step]
		}
		stats, err := snd.Tick(arrivals)
		if err != nil {
			return dropped, err
		}
		dropped += len(stats.Dropped)
	}
	return dropped, WriteEnd(w)
}
