// Command smoothd serves a smoothed real-time stream over TCP using the
// netstream protocol: each connecting client gets a synthetic clip (500
// frames) paced at the configured rate through a lossy, greedy-dropping
// smoothing buffer, with B = R·D negotiated per the paper's law from the
// client's advertised latency budget.
//
// Every session runs on the sharded serving engine (internal/serve): N
// shard loops, each with one model clock stepping every session registered
// on it. Sessions that negotiate the same (delay, buffer) share one
// precomputed schedule and cost only a cursor each. With -streams K every
// session carries K clips multiplexed as tagged substreams through one
// shared smoothing buffer, on the same engine — same handshake deadline,
// -max-sessions, metrics and drain. On SIGINT/SIGTERM the server stops
// accepting, drains in-flight sessions for up to 10 s, and exits 0.
//
// Usage:
//
//	smoothd [-listen :4321] [-rate-factor 1.1] [-step 40ms] [-once]
//	        [-streams K] [-shards N] [-max-sessions N]
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
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"runtime"
	"time"

	"repro/internal/cli"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() { cli.Main("smoothd", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("smoothd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	listen := fs.String("listen", ":4321", "TCP listen address")
	rateFactor := fs.Float64("rate-factor", 1.1, "link rate relative to the average stream rate")
	step := fs.Duration("step", 40*time.Millisecond, "wall-clock duration of one model step")
	once := fs.Bool("once", false, "serve a single connection and exit")
	streams := fs.Int("streams", 1, "substreams to multiplex over one shared smoothing buffer")
	shards := fs.Int("shards", runtime.GOMAXPROCS(0), "serving-engine shard loops")
	maxSessions := fs.Int("max-sessions", 0, "concurrent session cap (0 = unlimited)")
	debugAddr := fs.String("debug", "", "serve /metrics, /statusz, /debug/flightrec and /debug/pprof on this address (empty = off)")
	sloTarget := fs.Duration("slo", 0, "windowed p99 shard-step-duration target; breaches dump the flight recorder (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *streams < 1 {
		return fmt.Errorf("-streams must be >= 1")
	}

	clips := make([]*trace.Clip, *streams)
	for i := range clips {
		cfg := trace.DefaultGenConfig()
		cfg.Frames = 500
		cfg.Seed = 1 + int64(i)
		c, err := trace.Generate(cfg)
		if err != nil {
			return err
		}
		clips[i] = c
	}
	clip := clips[0]
	rate := max(int(*rateFactor*clip.AverageRate()*float64(*streams)), 1)

	// sessionDone fires once per finished session; -once waits on it.
	sessionDone := make(chan struct{}, 1)
	cfg := serve.Config{
		Rate:         rate,
		Shards:       *shards,
		MaxSessions:  *maxSessions,
		StepDuration: *step,
		Instrument:   diag.RegisterRuntimeMetrics,
		OnSessionDone: func(s serve.SessionStats, err error) {
			if err != nil {
				log.Printf("smoothd: session %s: %v", s.Remote, err)
			} else {
				log.Printf("smoothd: session %s done in %v (%d steps, %d dropped)",
					s.Remote, s.Elapsed.Round(time.Millisecond), s.Steps, s.Dropped)
			}
			select {
			case sessionDone <- struct{}{}:
			default:
			}
		},
	}
	var eng *serve.Engine
	var err error
	if *streams == 1 {
		eng, err = serve.New(clip, trace.PaperWeights(), cfg)
	} else {
		eng, err = serve.NewMux(clips, trace.PaperWeights(), cfg)
	}
	if err != nil {
		return err
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
			eng.Close()
			return err
		}
	}
	diag.NotifySIGUSR1(dopts)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		eng.Close()
		return err
	}
	log.Printf("smoothd: serving %d frames (avg rate %.1f units/frame) at R=%d units/step on %s (%d shards)",
		len(clip.Frames), clip.AverageRate(), rate, ln.Addr(), *shards)
	var done <-chan struct{}
	if *once {
		done = sessionDone
	}
	cli.Serve("smoothd", ln, eng, done)
	return nil
}
