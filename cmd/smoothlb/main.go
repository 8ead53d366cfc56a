// Command smoothlb is the fleet front tier: it accepts netstream client
// sessions, places each on one of the configured smoothd backends by
// live buffer headroom and scraped step-lag, and relays the backend's
// wire stream back to the client with zero userspace copies on Linux
// (splice through a per-session pipe).
//
// Placement prefers the backend with the most free session slots,
// penalized by its p99 shard-step duration when -backend-metrics points
// at the backends' -debug listeners; backends that fail to dial are
// quarantined and re-probed, and a backend observed draining (its own
// SIGTERM drain, or SIGHUP here — see below) stops receiving sessions
// while in-flight relays run to completion.
//
// Admission control runs at the front door: with -admit-capacity set,
// the per-step demand samples of the synthetic clip (-frames, -seed —
// match the backends' flags) feed the paper's Chernoff admission bound
// once at startup, and each connection costs one atomic check against
// the precomputed ceiling.
//
// Signals: SIGINT/SIGTERM stop accepting, drain in-flight relays up to
// -drain, and exit 0. SIGHUP gracefully drains one backend (round-robin
// over the backend list, for operational rehearsal). SIGUSR1 dumps the
// diagnostic snapshot to stderr.
//
// Usage:
//
//	smoothlb [-listen :4320] -backends host1:4321,host2:4321
//	         [-backend-metrics host1:6060,host2:6060]
//	         [-shards N] [-max-sessions N] [-slots 10000]
//	         [-pending 4096] [-place-workers 16]
//	         [-admit-capacity 0] [-admit-eps 1e-6] [-frames 500] [-seed 1]
//	         [-drain 10s] [-debug localhost:6061]
package main

import (
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/diag"
	"repro/internal/lb"
	"repro/internal/trace"
)

func main() {
	var (
		listen       = flag.String("listen", ":4320", "TCP listen address for client sessions")
		backendsCSV  = flag.String("backends", "", "comma-separated smoothd addresses (required)")
		metricsCSV   = flag.String("backend-metrics", "", "comma-separated backend -debug addresses for headroom/step-lag scraping (parallel to -backends; empty entries skip)")
		shards       = flag.Int("shards", runtime.GOMAXPROCS(0), "relay reactor shards")
		maxSessions  = flag.Int("max-sessions", 0, "concurrent session cap (0 = unlimited)")
		slots        = flag.Int("slots", 10000, "per-backend session capacity that headroom is scored against")
		pending      = flag.Int("pending", 4096, "pending-admit queue bound")
		placeWorkers = flag.Int("place-workers", 16, "concurrent placement (dial+handshake) workers")
		admitCap     = flag.Float64("admit-capacity", 0, "fleet capacity in units/step for Chernoff admission (0 = no admission gate)")
		admitEps     = flag.Float64("admit-eps", 1e-6, "per-step overflow probability bound for admission")
		frames       = flag.Int("frames", 500, "synthetic clip length for admission demand samples (match the backends)")
		seed         = flag.Int64("seed", 1, "synthetic clip seed for admission demand samples (match the backends)")
		drainWait    = flag.Duration("drain", 10*time.Second, "in-flight relay drain budget on shutdown")
		debugAddr    = flag.String("debug", "", "serve /metrics, /statusz, /debug/flightrec and /debug/pprof on this address (empty = off)")
	)
	flag.Parse()

	if *backendsCSV == "" {
		log.Fatalf("smoothlb: -backends is required")
	}
	backends := splitCSV(*backendsCSV)
	var metricsAddrs []string
	if *metricsCSV != "" {
		metricsAddrs = splitCSV(*metricsCSV)
		if len(metricsAddrs) != len(backends) {
			log.Fatalf("smoothlb: %d -backend-metrics entries for %d backends", len(metricsAddrs), len(backends))
		}
	}

	var gate *admission.Gate
	if *admitCap > 0 {
		cfg := trace.DefaultGenConfig()
		cfg.Frames = *frames
		cfg.Seed = *seed
		clip, err := trace.Generate(cfg)
		if err != nil {
			log.Fatalf("smoothlb: generating admission clip: %v", err)
		}
		samples := make([]int, len(clip.Frames))
		for i, f := range clip.Frames {
			samples[i] = f.Size
		}
		gate, err = admission.NewGate(samples, *admitCap, *admitEps, 1<<20)
		if err != nil {
			log.Fatalf("smoothlb: admission gate: %v", err)
		}
		log.Printf("smoothlb: admission ceiling %d streams at capacity %.0f units/step (eps %g)",
			gate.MaxStreams(), *admitCap, *admitEps)
	}

	eng, err := lb.New(lb.Config{
		Backends:     backends,
		MetricsAddrs: metricsAddrs,
		Shards:       *shards,
		MaxSessions:  *maxSessions,
		BackendSlots: *slots,
		PendingLimit: *pending,
		PlaceWorkers: *placeWorkers,
		Gate:         gate,
		Instrument:   diag.RegisterRuntimeMetrics,
		OnSessionDone: func(s lb.SessionStats) {
			if s.Err != nil {
				log.Printf("smoothlb: session %d (backend %d): %v", s.ID, s.Backend, s.Err)
			}
		},
	})
	if err != nil {
		log.Fatalf("smoothlb: %v", err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("smoothlb: %v", err)
	}
	log.Printf("smoothlb: fronting %d backends on %s (%d shards, %d placement workers)",
		len(backends), ln.Addr(), *shards, *placeWorkers)

	dopts := diag.Options{
		Service:   "smoothlb",
		Registry:  eng.Obs(),
		Recorders: eng.FlightRecorders(),
	}
	if *debugAddr != "" {
		if _, err := diag.Start(*debugAddr, dopts); err != nil {
			log.Fatalf("smoothlb: %v", err)
		}
	}
	diag.NotifySIGUSR1(dopts)

	// SIGHUP drains one backend per signal, round-robin: an operational
	// rehearsal lever for rolling backend restarts.
	hupCh := make(chan os.Signal, 1)
	signal.Notify(hupCh, syscall.SIGHUP)
	go func() {
		next := 0
		for range hupCh {
			i := next % len(backends)
			next++
			if err := eng.DrainBackend(i); err != nil {
				log.Printf("smoothlb: drain backend: %v", err)
				continue
			}
			log.Printf("smoothlb: SIGHUP: draining backend %d (%s)", i, backends[i])
		}
	}()

	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			conn, err := ln.Accept()
			if err != nil {
				if !errors.Is(err, net.ErrClosed) {
					log.Printf("smoothlb: accept: %v", err)
				}
				return
			}
			// The handshake read blocks; keep the accept loop free.
			go func(c net.Conn) {
				if err := eng.Handle(c); err != nil {
					log.Printf("smoothlb: %v", err)
				}
			}(conn)
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	log.Printf("smoothlb: %v: stopping accept, draining relays (budget %v)", sig, *drainWait)

	ln.Close()
	<-acceptDone
	drained := eng.Drain(*drainWait)
	eng.Close()
	if drained {
		log.Printf("smoothlb: drained cleanly, bye")
	} else {
		log.Printf("smoothlb: drain budget exceeded, aborting in-flight relays")
	}
	os.Exit(0)
}

// splitCSV splits a comma-separated flag, trimming whitespace and keeping
// empty entries (an empty -backend-metrics slot disables scraping for
// that backend).
func splitCSV(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
