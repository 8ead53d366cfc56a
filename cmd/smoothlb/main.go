// Command smoothlb is the fleet front tier: it accepts netstream client
// sessions, places each on one of the configured smoothd backends by
// live buffer headroom and scraped step-lag, and relays the backend's
// wire stream back to the client by copy, through one buffer per relay
// shard (Linux only).
//
// Placement prefers the backend with the most free session slots,
// penalized by its p99 shard-step duration when -backend-metrics points
// at the backends' -debug listeners; backends that fail to dial are
// quarantined and re-probed, and a backend observed draining (its own
// SIGTERM drain, or SIGHUP here — see below) stops receiving sessions
// while in-flight relays run to completion.
//
// Signals: SIGINT/SIGTERM stop accepting, drain in-flight relays for up
// to 10 s, and exit 0. SIGHUP gracefully drains one backend (round-robin
// over the backend list, for operational rehearsal). SIGUSR1 dumps the
// diagnostic snapshot to stderr.
//
// Usage:
//
//	smoothlb [-listen :4320] -backends host1:4321,host2:4321
//	         [-backend-metrics host1:6060,host2:6060] [-debug localhost:6061]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"slices"
	"syscall"

	"repro/internal/cli"
	"repro/internal/diag"
	"repro/internal/lb"
)

func main() { cli.Main("smoothlb", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("smoothlb", flag.ContinueOnError)
	fs.SetOutput(stdout)
	listen := fs.String("listen", ":4320", "TCP listen address for client sessions")
	backendsCSV := fs.String("backends", "", "comma-separated smoothd addresses (required)")
	metricsCSV := fs.String("backend-metrics", "", "comma-separated backend -debug addresses for headroom/step-lag scraping (parallel to -backends; empty entries skip)")
	debugAddr := fs.String("debug", "", "serve /metrics, /statusz, /debug/flightrec and /debug/pprof on this address (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *backendsCSV == "" {
		return fmt.Errorf("-backends is required")
	}
	backends := cli.List(*backendsCSV)
	if slices.Contains(backends, "") {
		return fmt.Errorf("-backends %q has an empty entry", *backendsCSV)
	}
	// An empty -backend-metrics entry disables scraping for its backend.
	var metricsAddrs []string
	if *metricsCSV != "" {
		metricsAddrs = cli.List(*metricsCSV)
	}

	eng, err := lb.New(lb.Config{
		Backends:     backends,
		MetricsAddrs: metricsAddrs,
		Instrument:   diag.RegisterRuntimeMetrics,
		OnSessionDone: func(s lb.SessionStats) {
			if s.Err != nil {
				log.Printf("smoothlb: session %d (backend %d): %v", s.ID, s.Backend, s.Err)
			}
		},
	})
	if err != nil {
		return err
	}
	dopts := diag.Options{Service: "smoothlb", Registry: eng.Obs(), Recorders: eng.FlightRecorders()}
	if *debugAddr != "" {
		if _, err := diag.Start(*debugAddr, dopts); err != nil {
			eng.Close()
			return err
		}
	}
	diag.NotifySIGUSR1(dopts)

	// SIGHUP drains one backend per signal, round-robin: an operational
	// rehearsal lever for rolling backend restarts.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		next := 0
		for range hup {
			i := next % len(backends)
			next++
			if err := eng.DrainBackend(i); err != nil {
				log.Printf("smoothlb: drain backend: %v", err)
				continue
			}
			log.Printf("smoothlb: SIGHUP: draining backend %d (%s)", i, backends[i])
		}
	}()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		eng.Close()
		return err
	}
	log.Printf("smoothlb: fronting %d backends on %s", len(backends), ln.Addr())
	cli.Serve("smoothlb", ln, eng, nil)
	return nil
}
