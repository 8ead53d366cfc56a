// Command smoothplay connects to a smoothd server, receives the smoothed
// stream, reconstructs it with the paper's timer-based client, and reports
// playout statistics.
//
// Usage:
//
//	smoothplay [-connect host:4321] [-delay D] [-streams K]
package main

import (
	"flag"
	"fmt"
	"io"
	"net"

	"repro/internal/cli"
	"repro/internal/netstream"
)

func main() { cli.Main("smoothplay", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("smoothplay", flag.ContinueOnError)
	fs.SetOutput(stdout)
	addr := fs.String("connect", "localhost:4321", "server address")
	delay := fs.Int("delay", 16, "desired smoothing delay in steps")
	streams := fs.Int("streams", 1, "substreams to expect (matching smoothd -streams)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	conn, err := net.Dial("tcp", *addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	stats, err := netstream.Receive(conn, *delay, *streams, nil)
	if err != nil {
		return err
	}
	if *streams > 1 {
		fmt.Fprintf(stdout, "negotiated delay: %d steps; %d substreams\n", stats.Delay, *streams)
		for i, ps := range stats.PerStream {
			fmt.Fprintf(stdout, "  stream %d: %d slices, %d bytes, weight %.0f\n", i, ps.Played, ps.Bytes, ps.Weight)
		}
		fmt.Fprintf(stdout, "incomplete: %d slices\n", stats.Incomplete)
	} else {
		fmt.Fprintf(stdout, "negotiated delay: %d steps\n", stats.Delay)
		fmt.Fprintf(stdout, "played:           %d slices (%d bytes)\n", stats.Played, stats.PlayedBytes)
		fmt.Fprintf(stdout, "incomplete:       %d slices\n", stats.Incomplete)
	}
	fmt.Fprintf(stdout, "late bytes:       %d\n", stats.LateBytes)
	fmt.Fprintf(stdout, "peak buffer:      %d bytes\n", stats.MaxBuffer)
	if stats.Corrupt > 0 {
		return fmt.Errorf("%d data messages failed payload verification", stats.Corrupt)
	}
	return nil
}
