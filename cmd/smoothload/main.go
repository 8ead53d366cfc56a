// Command smoothload is the serving benchmark: it drives K concurrent
// client sessions against a smoothd instance through the sharded reactor
// engine of internal/loadgen and reports aggregate throughput, step-lag
// percentiles and per-session loss. A session costs one fd and a few
// hundred bytes — no goroutine, no timer — so one smoothload process can
// hold ~20k concurrent sessions (the fd ceiling) and push hundreds of
// thousands through in waves.
//
// Step lag is measured per data message: a session anchors a clock at its
// first message (the paper's clock-synchronization-free playout anchor)
// and records how far behind the ideal pacing schedule — anchor +
// SendStep·step — each message arrives, rebased per session so the
// fastest of its leading messages defines lag 0. Timestamps are taken
// once per reactor wake on a monotonic clock, so the numbers measure the
// server, not smoothload's own scheduler. p50/p99/p99.9 come from
// fixed-footprint log-bucketed histograms accurate to ~3% relative
// error. Failures are broken down by stage: dial (connection refused),
// handshake (Hello/Accept exchange), and mid-stream (anything after
// Accept).
//
// In ramp mode (-ramp) smoothload runs waves of increasing size until
// the p99 step lag exceeds the SLO (-slo) or sessions start failing, and
// reports the largest wave the server sustained — the "max sessions at a
// p99 lag SLO" capacity number for the engine's density work. With
// multiple -connect addresses (including a smoothlb front tier, or the
// backends behind one), sessions stripe across them by session index
// (idx % len(addrs)); the stripe is a pure function of the index, so
// every ramp wave re-measures the same server mix and wave-to-wave lag
// deltas are attributable to load, not reassignment.
//
// Usage:
//
//	smoothload [-connect localhost:4321[,addr2,...]] [-sessions 256] [-delay 16]
//	smoothload -ramp [-ramp-start 64] [-slo 50ms] [-sessions MAX]
//
// In ramp mode each wave is twice the size of the last. The -slo target
// also arms a streaming accountant over the windowed p99 step lag
// (evaluated every second); entering breach dumps the flight recorder to
// stderr once per excursion. SIGUSR1 dumps the unified diagnostic
// snapshot (runtime line, metrics, flight recorder) at any time.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"time"

	"repro/internal/cli"
	"repro/internal/diag"
	"repro/internal/loadgen"
	"repro/internal/obs"
)

func main() { cli.Main("smoothload", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("smoothload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	addrs := fs.String("connect", "localhost:4321", "server address(es), comma-separated; sessions stripe across them")
	sessions := fs.Int("sessions", 256, "concurrent client sessions (the wave cap in ramp mode)")
	delay := fs.Int("delay", 16, "desired smoothing delay in steps")
	ramp := fs.Bool("ramp", false, "ramp wave sizes until the p99 step-lag SLO breaks; report max sustainable sessions")
	rampStart := fs.Int("ramp-start", 64, "first wave size in ramp mode")
	slo := fs.Duration("slo", 50*time.Millisecond, "p99 step-lag SLO for ramp mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sessions < 1 {
		return fmt.Errorf("-sessions must be >= 1")
	}
	eng, err := loadgen.New(loadgen.Config{
		Addrs:      slices.DeleteFunc(cli.List(*addrs), func(a string) bool { return a == "" }),
		Delay:      *delay,
		Instrument: diag.RegisterRuntimeMetrics,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	// The streaming SLO accountant over windowed p99 step lag — the live
	// form of the ramp criterion.
	acct := obs.NewSLO(eng.Obs(), eng.StepLagHist(), slo.Microseconds(), 0.99, func(p99 int64) {
		log.Printf("smoothload: SLO breach: windowed p99 step lag %dµs > %v", p99, *slo)
		if err := obs.WriteFlightDump(os.Stderr, eng.FlightRecorders()); err != nil {
			log.Printf("smoothload: flight dump: %v", err)
		}
	})
	acct.Start(time.Second)
	defer acct.Stop()
	diag.NotifySIGUSR1(diag.Options{
		Service:   "smoothload",
		Registry:  eng.Obs(),
		Recorders: eng.FlightRecorders(),
		SLO:       acct,
	})

	if *ramp {
		return runRamp(stdout, eng, *sessions, *rampStart, *slo)
	}
	rep, err := eng.Run(*sessions)
	if err != nil {
		return err
	}
	report(stdout, rep)
	if rep.Failed > 0 {
		return fmt.Errorf("%d sessions failed", rep.Failed)
	}
	return nil
}

// runRamp drives waves of growing size until the SLO breaks, a session
// fails, or the wave cap is reached, then prints the last sustained
// level. The engine (shards, histograms, decoder scratch) is reused
// across waves.
func runRamp(w io.Writer, eng *loadgen.Engine, cap, start int, slo time.Duration) error {
	best := 0
	for n := max(start, 1); ; n *= 2 {
		n = min(n, cap)
		fmt.Fprintf(w, "--- wave: %d sessions\n", n)
		rep, err := eng.Run(n)
		if err != nil {
			return err
		}
		report(w, rep)
		p99 := time.Duration(rep.Lag.Quantile(0.99)) * time.Microsecond
		if rep.Failed > 0 || p99 > slo {
			fmt.Fprintf(w, "ramp:       %d sessions BROKE the SLO (p99 %v > %v, %d failed)\n",
				n, p99.Round(10*time.Microsecond), slo, rep.Failed)
			break
		}
		best = n
		if n == cap {
			break
		}
	}
	if best == 0 {
		return fmt.Errorf("no sustainable wave at p99 <= %v (start lower than %d?)", slo, start)
	}
	fmt.Fprintf(w, "max sustainable sessions: %d at p99 step lag <= %v\n", best, slo)
	return nil
}

func report(w io.Writer, r loadgen.Report) {
	secs := r.Elapsed.Seconds()
	fmt.Fprintf(w, "sessions:   %d completed, %d failed (%d dial, %d handshake, %d mid-stream) in %v (%.1f sessions/s)\n",
		r.Completed, r.Failed, r.DialFailed, r.HandshakeFailed, r.MidStreamFailed,
		r.Elapsed.Round(time.Millisecond), float64(r.Completed)/secs)
	fmt.Fprintf(w, "throughput: %d payload bytes (%.1f KB/s aggregate)\n",
		r.Bytes, float64(r.Bytes)/1024/secs)
	if r.Lag.Count() > 0 {
		fmt.Fprintf(w, "step lag:   p50 %s, p99 %s, p99.9 %s  (%d messages)\n",
			fmtMicros(r.Lag.Quantile(0.50)), fmtMicros(r.Lag.Quantile(0.99)),
			fmtMicros(r.Lag.Quantile(0.999)), r.Lag.Count())
	}
	if r.Completed > 0 {
		fmt.Fprintf(w, "loss:       %d slices played, %d incomplete (mean %.2f/session, max %d), %d late bytes\n",
			r.Played, r.Incomplete, float64(r.Incomplete)/float64(r.Completed), r.MaxIncomplete, r.LateBytes)
	}
}

func fmtMicros(us int64) string {
	return (time.Duration(us) * time.Microsecond).Round(10 * time.Microsecond).String()
}
