// Command smoothd serves a smoothed real-time stream over TCP using the
// netstream protocol: each connecting client gets the clip paced at the
// configured rate through a lossy smoothing buffer, with B = R·D negotiated
// per the paper's law from the client's advertised latency budget.
//
// Every session runs on the sharded serving engine (internal/serve): N
// shard loops, each with one model clock stepping every session registered
// on it. Sessions that negotiate the same (delay, buffer) share one
// precomputed schedule and cost only a cursor each. With -streams K every
// session carries K clips multiplexed as tagged substreams through one
// shared smoothing buffer, on the same engine — same handshake deadline,
// -max-sessions, metrics and drain. On SIGINT/SIGTERM the server stops
// accepting, drains in-flight sessions up to -drain, and exits 0.
//
// Usage:
//
//	smoothd [-listen :4321] [-trace FILE] [-frames N] [-seed N]
//	        [-rate-factor F] [-step 40ms] [-policy greedy] [-once]
//	        [-streams K] [-shards N] [-max-sessions N] [-drain 10s]
//	        [-debug localhost:6060] [-slo 0]
//
// With -debug the server exposes the diagnostic surface on the given
// address: Prometheus-text /metrics, JSON /statusz, the flight-recorder
// dump at /debug/flightrec, and net/http/pprof under /debug/pprof/.
// SIGUSR1 dumps the unified diagnostic snapshot (runtime line, metrics,
// flight recorder) to stderr at any time, with or without -debug. A
// non-zero -slo arms the streaming SLO accountant on the windowed p99
// shard-step duration: crossing the target increments slo_breaches and
// dumps the flight recorder once per excursion.
//
// Pair it with cmd/smoothplay (interactive) or cmd/smoothload (load).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/diag"
	"repro/internal/drop"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	var (
		listen      = flag.String("listen", ":4321", "TCP listen address")
		tracePath   = flag.String("trace", "", "trace file (default: synthetic clip)")
		frames      = flag.Int("frames", 500, "synthetic clip length")
		seed        = flag.Int64("seed", 1, "synthetic clip seed")
		rateFactor  = flag.Float64("rate-factor", 1.1, "link rate relative to the average stream rate")
		step        = flag.Duration("step", 40*time.Millisecond, "wall-clock duration of one model step")
		policyName  = flag.String("policy", "greedy", "drop policy: taildrop, headdrop, greedy")
		once        = flag.Bool("once", false, "serve a single connection and exit")
		streams     = flag.Int("streams", 1, "substreams to multiplex over one shared smoothing buffer")
		shards      = flag.Int("shards", runtime.GOMAXPROCS(0), "serving-engine shard loops")
		maxSessions = flag.Int("max-sessions", 0, "concurrent session cap (0 = unlimited)")
		drainWait   = flag.Duration("drain", 10*time.Second, "in-flight session drain budget on shutdown")
		debugAddr   = flag.String("debug", "", "serve /metrics, /statusz, /debug/flightrec and /debug/pprof on this address (empty = off)")
		sloTarget   = flag.Duration("slo", 0, "windowed p99 shard-step-duration target; breaches dump the flight recorder (0 = off)")
	)
	flag.Parse()

	if *streams < 1 {
		log.Fatalf("smoothd: -streams must be >= 1")
	}
	clips := make([]*trace.Clip, *streams)
	for i := range clips {
		c, err := loadClip(*tracePath, *frames, *seed+int64(i))
		if err != nil {
			log.Fatalf("smoothd: %v", err)
		}
		clips[i] = c
	}
	clip := clips[0]
	rate := int(*rateFactor * clip.AverageRate() * float64(*streams))
	if rate < 1 {
		rate = 1
	}
	var factory drop.Factory
	switch *policyName {
	case "taildrop":
		factory = drop.TailDrop
	case "headdrop":
		factory = drop.HeadDrop
	case "greedy":
		factory = drop.Greedy
	default:
		log.Fatalf("smoothd: unknown policy %q", *policyName)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("smoothd: %v", err)
	}
	log.Printf("smoothd: serving %d frames (avg rate %.1f units/frame) at R=%d units/step on %s (%d shards)",
		len(clip.Frames), clip.AverageRate(), rate, ln.Addr(), *shards)

	// sessionDone fires once per finished session; -once waits on it.
	sessionDone := make(chan struct{}, 1)
	noteDone := func() {
		select {
		case sessionDone <- struct{}{}:
		default:
		}
	}

	cfg := serve.Config{
		Rate:         rate,
		Shards:       *shards,
		MaxSessions:  *maxSessions,
		StepDuration: *step,
		Policy:       factory,
		Instrument:   diag.RegisterRuntimeMetrics,
		OnSessionDone: func(s serve.SessionStats, err error) {
			if err != nil {
				log.Printf("smoothd: session %s: %v", s.Remote, err)
			} else {
				log.Printf("smoothd: session %s done in %v (%d steps, %d dropped)",
					s.Remote, s.Elapsed.Round(time.Millisecond), s.Steps, s.Dropped)
			}
			noteDone()
		},
	}
	var eng *serve.Engine
	if *streams == 1 {
		eng, err = serve.New(clip, trace.PaperWeights(), cfg)
	} else {
		eng, err = serve.NewMux(clips, trace.PaperWeights(), cfg)
	}
	if err != nil {
		log.Fatalf("smoothd: %v", err)
	}

	dopts := diag.Options{Service: "smoothd", Registry: eng.Obs(), Recorders: eng.FlightRecorders()}
	if *sloTarget > 0 {
		slo := obs.NewSLO(eng.Obs(), eng.StepDurationHist(), sloTarget.Microseconds(), 0.99, func(p99 int64) {
			log.Printf("smoothd: SLO breach: windowed p99 step duration %dµs > %v", p99, *sloTarget)
			if err := obs.WriteFlightDump(os.Stderr, eng.FlightRecorders()); err != nil {
				log.Printf("smoothd: flight dump: %v", err)
			}
		})
		slo.Start(time.Second)
		defer slo.Stop()
		dopts.SLO = slo
	}
	if *debugAddr != "" {
		if _, err := diag.Start(*debugAddr, dopts); err != nil {
			log.Fatalf("smoothd: %v", err)
		}
	}
	diag.NotifySIGUSR1(dopts)

	// Accept in the background so the main goroutine can watch for signals.
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			conn, err := ln.Accept()
			if err != nil {
				if !errors.Is(err, net.ErrClosed) {
					log.Printf("smoothd: accept: %v", err)
				}
				return
			}
			// The handshake read blocks; keep the accept loop free.
			go func(c net.Conn) {
				if err := eng.Handle(c); err != nil {
					log.Printf("smoothd: %v", err)
				}
			}(conn)
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	if *once {
		select {
		case <-sessionDone:
		case sig := <-sigCh:
			log.Printf("smoothd: %v", sig)
		}
	} else {
		sig := <-sigCh
		log.Printf("smoothd: %v: stopping accept, draining sessions (budget %v)", sig, *drainWait)
	}

	// Graceful shutdown: stop accepting, drain in-flight sessions up to the
	// budget, then exit 0 either way (Close aborts stragglers).
	ln.Close()
	<-acceptDone
	drained := eng.Drain(*drainWait)
	eng.Close()
	if drained {
		log.Printf("smoothd: drained cleanly, bye")
	} else {
		log.Printf("smoothd: drain budget exceeded, aborting in-flight sessions")
	}
	os.Exit(0)
}

func loadClip(path string, frames int, seed int64) (*trace.Clip, error) {
	if path == "" {
		cfg := trace.DefaultGenConfig()
		cfg.Frames = frames
		cfg.Seed = seed
		return trace.Generate(cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := trace.Read(f)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return c, nil
}
