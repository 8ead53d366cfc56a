// Livecast: a real end-to-end session over TCP loopback. The serving engine
// (internal/serve) paces a live synthetic clip through a smoothing buffer at
// 95% of the stream's average rate; the client connects with a latency budget, negotiates
// B = R·D, reconstructs the stream with the paper's timer-based playout,
// and verifies every payload byte.
//
// Run with: go run ./examples/livecast
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/netstream"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 400
	clip, err := trace.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rate := int(0.95 * clip.AverageRate())
	fmt.Printf("live clip: %d frames, avg %.1f KB/frame; pacing at %d KB/step\n",
		len(clip.Frames), clip.AverageRate(), rate)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()

	// The engine reports the session's end (nil for a clean drain to End);
	// a refused handshake is reported by Handle instead.
	serveErr := make(chan error, 1)
	eng, err := serve.New(clip, trace.PaperWeights(), serve.Config{
		Rate:          rate,
		Shards:        1,
		StepDuration:  2 * time.Millisecond, // 500 steps/s so the demo finishes quickly
		OnSessionDone: func(_ serve.SessionStats, err error) { serveErr <- err },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			err = eng.Handle(conn)
		}
		if err != nil {
			serveErr <- err
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	start := time.Now()
	const latencyBudget = 24 // steps the viewer will tolerate
	stats, err := netstream.Receive(conn, 0, latencyBudget, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		log.Fatal(err)
	}

	fmt.Printf("negotiated smoothing delay: %d steps (B = R*D = %d KB)\n",
		stats.Delay, rate*stats.Delay)
	fmt.Printf("session wall time:          %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("frames played:              %d of %d\n", stats.Played, len(clip.Frames))
	fmt.Printf("frames lost to congestion:  %d\n", len(clip.Frames)-stats.Played)
	fmt.Printf("payload verified:           %d KB, %d corrupt\n", stats.PlayedBytes, stats.Corrupt)
	fmt.Printf("client peak buffer:         %d KB (bound R*D = %d)\n", stats.MaxBuffer, rate*stats.Delay)

	if stats.Corrupt > 0 {
		log.Fatal("payload corruption detected")
	}
	if stats.MaxBuffer > rate*stats.Delay {
		log.Fatal("client buffer exceeded the R*D bound — Lemma 3.4 violated")
	}
	fmt.Println("\nThe link runs 5% below the source rate, so the smoothing buffer")
	fmt.Println("must shed a few whole frames (greedy keeps the valuable ones);")
	fmt.Println("everything that is played arrives on time within the R*D client")
	fmt.Println("buffer, with no clock synchronization between the endpoints.")
}
