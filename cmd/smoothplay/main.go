// Command smoothplay connects to a smoothd server, receives the smoothed
// stream, reconstructs it with the paper's timer-based client, and reports
// playout statistics.
//
// Usage:
//
//	smoothplay [-connect host:4321] [-delay D] [-buffer BYTES] [-streams K] [-v]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"

	"repro/internal/netstream"
)

func main() {
	var (
		addr    = flag.String("connect", "localhost:4321", "server address")
		delay   = flag.Int("delay", 16, "desired smoothing delay in steps")
		buffer  = flag.Int("buffer", 0, "client buffer in bytes to advertise (0 = unlimited)")
		verbose = flag.Bool("v", false, "log every played slice")
		streams = flag.Int("streams", 1, "substreams to expect (matching smoothd -streams)")
	)
	flag.Parse()

	conn, err := net.Dial("tcp", *addr)
	if err != nil {
		log.Fatalf("smoothplay: %v", err)
	}
	defer conn.Close()

	var onPlay func(*netstream.Data)
	if *verbose {
		onPlay = func(d *netstream.Data) {
			log.Printf("step %d: slice %d of stream %d complete (frame %d, %d bytes)",
				d.SendStep, d.SliceID, d.StreamID, d.Arrival, d.Size)
		}
	}
	stats, err := netstream.Receive(conn, *buffer, *delay, *streams, onPlay)
	if err != nil {
		log.Fatalf("smoothplay: %v", err)
	}
	if *streams > 1 {
		fmt.Printf("negotiated delay: %d steps; %d substreams\n", stats.Delay, *streams)
		for i, ps := range stats.PerStream {
			fmt.Printf("  stream %d: %d slices, %d bytes, weight %.0f\n", i, ps.Played, ps.Bytes, ps.Weight)
		}
		fmt.Printf("incomplete: %d slices\n", stats.Incomplete)
	} else {
		fmt.Printf("negotiated delay: %d steps\n", stats.Delay)
		fmt.Printf("played:           %d slices (%d bytes)\n", stats.Played, stats.PlayedBytes)
		fmt.Printf("incomplete:       %d slices\n", stats.Incomplete)
	}
	fmt.Printf("late bytes:       %d\n", stats.LateBytes)
	fmt.Printf("peak buffer:      %d bytes\n", stats.MaxBuffer)
	if stats.Corrupt > 0 {
		log.Fatalf("smoothplay: %d data messages failed payload verification", stats.Corrupt)
	}
}
