package netstream_test

import (
	"bytes"
	"fmt"

	"repro/internal/drop"
	"repro/internal/netstream"
	"repro/internal/stream"
)

// Example pushes three slices through a Sender and the receive loop over an
// in-memory wire, demonstrating the step-driven session API.
func Example() {
	var wire bytes.Buffer
	snd, _ := netstream.NewSender(&wire, netstream.SenderConfig{
		ServerBuffer: 4,
		Rate:         2,
		Policy:       drop.Greedy,
	})
	fmt.Printf("negotiated delay D = %d\n", snd.Delay())

	payload := func(sl stream.Slice) []byte { return netstream.SynthPayload(sl.ID, sl.Size) }
	st := stream.NewBuilder().
		Add(0, 2, 2).
		Add(0, 2, 2).
		Add(1, 2, 2).
		MustBuild()
	for step := 0; step <= st.Horizon(); step++ {
		if _, err := snd.Tick(netstream.OfferStream(st, step, payload)); err != nil {
			fmt.Println(err)
			return
		}
	}
	if _, err := snd.Drain(); err != nil {
		fmt.Println(err)
		return
	}

	stats, err := netstream.ReceiveStream(&wire, snd.Delay(), 1, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("played %d of %d slices, %d late bytes\n", stats.Played, st.Len(), stats.LateBytes)
	// Output:
	// negotiated delay D = 2
	// played 3 of 3 slices, 0 late bytes
}
