package netstream

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/drop"
	"repro/internal/mux"
	"repro/internal/stream"
	"repro/internal/trace"
)

func muxClips(t *testing.T, k, frames int) []*trace.Clip {
	t.Helper()
	clips := make([]*trace.Clip, k)
	for i := range clips {
		cfg := trace.DefaultGenConfig()
		cfg.Frames = frames
		cfg.Seed = int64(i + 1)
		c, err := trace.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clips[i] = c
	}
	return clips
}

func TestMuxerOffersAndLocalIDs(t *testing.T) {
	a := stream.NewBuilder().Add(0, 1, 1).Add(1, 2, 2).MustBuild()
	b := stream.NewBuilder().Add(0, 3, 3).MustBuild()
	m, err := NewMuxer([]*stream.Stream{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.Horizon() != 1 {
		t.Errorf("horizon=%d", m.Horizon())
	}
	offers := m.Offers(0, func(si int, sl stream.Slice) []byte {
		return make([]byte, sl.Size)
	})
	if len(offers) != 2 {
		t.Fatalf("step-0 offers = %d", len(offers))
	}
	// Session IDs are unique and interleaved by (arrival, stream):
	// a.slice0 -> 0, b.slice0 -> 1, a.slice1 -> 2.
	ids := map[int]bool{}
	for _, o := range offers {
		if ids[o.Slice.ID] {
			t.Fatalf("duplicate session ID %d", o.Slice.ID)
		}
		ids[o.Slice.ID] = true
	}
	if _, err := NewMuxer(nil); err == nil {
		t.Error("empty muxer accepted")
	}
}

// TestMuxSessionMatchesSharedSimulation — the wire mux session delivers
// exactly the per-stream benefit that the mux.Shared simulation predicts.
func TestMuxSessionMatchesSharedSimulation(t *testing.T) {
	const k = 3
	clips := muxClips(t, k, 200)
	streams := make([]*stream.Stream, k)
	totalBytes, horizon := 0, 0
	for i, c := range clips {
		st, err := trace.WholeFrameStream(c, trace.PaperWeights())
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = st
		totalBytes += st.TotalBytes()
		if st.Horizon() > horizon {
			horizon = st.Horizon()
		}
	}
	R := int(0.95 * float64(totalBytes) / float64(horizon+1))
	B := 4 * 120 * k

	var wire bytes.Buffer
	dropped, err := ServeMux(&wire, clips, SenderConfig{ServerBuffer: B, Rate: R, Policy: drop.Greedy})
	if err != nil {
		t.Fatal(err)
	}
	delay := (B + R - 1) / R
	stats, err := ReceiveStream(&wire, delay, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	// What the map-based receiver reported for this fixture.
	if want := []StreamStats{{196, 7679, 48837}, {195, 8512, 53620}, {193, 6729, 41847}}; !reflect.DeepEqual(stats.PerStream, want) {
		t.Errorf("per-stream (played, bytes, weight) %+v, want %+v", stats.PerStream, want)
	}
	if stats.MaxBuffer > R*delay || stats.LateBytes != 0 {
		t.Errorf("peak buffer %d (R*D = %d), %d late bytes", stats.MaxBuffer, R*delay, stats.LateBytes)
	}

	sim, err := mux.Shared(streams, R, B, drop.Greedy)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if math.Abs(stats.PerStream[i].Weight-sim.PerStream[i].PlayedWeight) > 1e-6 {
			t.Errorf("stream %d: wire weight %v != simulated %v",
				i, stats.PerStream[i].Weight, sim.PerStream[i].PlayedWeight)
		}
		if stats.PerStream[i].Bytes != sim.PerStream[i].PlayedBytes {
			t.Errorf("stream %d: wire bytes %d != simulated %d",
				i, stats.PerStream[i].Bytes, sim.PerStream[i].PlayedBytes)
		}
	}
	if stats.Incomplete != 0 {
		t.Errorf("%d incomplete slices on a lossless wire", stats.Incomplete)
	}
	// Drops happened iff the simulation dropped.
	simDropped := 0
	for i := range sim.PerStream {
		simDropped += streams[i].Len()
	}
	simPlayed := 0
	for i := range sim.PerStream {
		simPlayed += stats.PerStream[i].Played
	}
	if dropped != simDropped-simPlayed {
		t.Errorf("wire dropped %d, simulation %d", dropped, simDropped-simPlayed)
	}
}

func TestReceiveStreamValidation(t *testing.T) {
	if _, err := ReceiveStream(bytes.NewReader(nil), 1, 0, nil); err == nil {
		t.Error("stream count 0 accepted")
	}
	// A data message tagged with a stream the session does not have fails
	// cleanly; a single-stream session has only stream 0.
	for _, tc := range []struct{ tag, streams int }{{9, 2}, {2, 2}, {1, 1}} {
		wire := dataWire(t, true, Data{StreamID: uint32(tc.tag), SliceID: 1, Arrival: 0, Size: 1, SendStep: 0, Payload: []byte{1}})
		if _, err := ReceiveStream(wire, 1, tc.streams, nil); err == nil {
			t.Errorf("stream tag %d accepted in a session of %d", tc.tag, tc.streams)
		}
	}
	wire := dataWire(t, true, Data{StreamID: 1, SliceID: 1, Arrival: 0, Size: 1, SendStep: 0, Weight: 3, Payload: []byte{1}})
	stats, err := ReceiveStream(wire, 1, 2, nil)
	if err != nil || stats.Corrupt != 0 || !reflect.DeepEqual(stats.PerStream, []StreamStats{{}, {1, 1, 3}}) {
		t.Errorf("tag 1 of 2: %+v, %v; want stream 1 credited and no payload verification", stats, err)
	}
}
