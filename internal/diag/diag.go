// Package diag is the shared diagnostic surface of cmd/smoothd and
// cmd/smoothload: a Prometheus-text /metrics endpoint, a JSON /statusz,
// a flight-recorder dump at /debug/flightrec, the net/http/pprof
// handlers, and one unified SIGUSR1 snapshot writer, all fed by an
// engine's obs.Registry. Both daemons route every dump through the same
// writer, so a capacity run produces the same diagnostic shapes no
// matter which side of the wire it is taken from.
package diag

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/obs"
)

// Options selects what a daemon exposes. Registry is required for the
// metric endpoints; the rest are optional.
type Options struct {
	// Service names the daemon in snapshots and /statusz ("smoothd",
	// "smoothload").
	Service string
	// Registry is the engine's metric registry.
	Registry *obs.Registry
	// Recorders are the engine's per-shard flight-recorder rings.
	Recorders []*obs.FlightRecorder
	// SLO, if non-nil, is rendered after the registry on /metrics and
	// /statusz.
	SLO *obs.SLO
}

// scrapeErrs counts endpoint write failures (client hung up mid-scrape).
// There is nowhere useful to report a write error once the response has
// started, so the failure is counted and surfaced on the next successful
// /statusz instead of being dropped.
var scrapeErrs atomic.Uint64

// writeTimeout bounds one diagnostic response; a stalled scraper must
// not pin a handler goroutine for the life of the process.
const writeTimeout = 10 * time.Second

// Start exposes the diagnostic surface on addr (e.g. "localhost:6060")
// in a background goroutine and returns the bound address. The listen
// error is returned synchronously so a bad flag fails fast; per-request
// errors after that are counted in scrape_errors. Endpoints: /metrics,
// /statusz, /debug/flightrec (?format=json), /debug/pprof/*.
func Start(addr string, opts Options) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("diag: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           Handler(opts),
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      writeTimeout,
	}
	log.Printf("diag: %s metrics on http://%s/metrics (statusz, debug/flightrec, debug/pprof)", opts.Service, ln.Addr())
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("diag: server: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}

// Handler returns the diagnostic mux for Options, for daemons (and
// tests) that manage their own server.
func Handler(opts Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := writeMetrics(w, opts); err != nil {
			scrapeErrs.Add(1)
		}
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := writeStatusz(w, opts); err != nil {
			scrapeErrs.Add(1)
		}
	})
	mux.HandleFunc("/debug/flightrec", func(w http.ResponseWriter, r *http.Request) {
		var err error
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			err = obs.WriteFlightJSON(w, opts.Recorders)
		} else {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			err = obs.WriteFlightDump(w, opts.Recorders)
		}
		if err != nil {
			scrapeErrs.Add(1)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeMetrics renders the full Prometheus-text body: registry, then the
// SLO accountant's series.
func writeMetrics(w io.Writer, opts Options) error {
	if err := opts.Registry.WritePrometheus(w, nil); err != nil {
		return err
	}
	if opts.SLO != nil {
		return opts.SLO.WritePrometheus(w)
	}
	return nil
}

// writeStatusz renders the JSON status object: service identity, runtime
// stats, the merged registry, and the SLO fields.
func writeStatusz(w io.Writer, opts Options) error {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	adm, rej := admission.Counters()
	if _, err := fmt.Fprintf(w,
		`{"service":%q,"runtime":{"goroutines":%d,"heap_inuse_bytes":%d,"sys_bytes":%d,"gc_cycles":%d},`+
			`"admission":{"admitted":%d,"rejected":%d},"scrape_errors":%d,"metrics":`,
		opts.Service, runtime.NumGoroutine(), m.HeapInuse, m.Sys, m.NumGC, adm, rej, scrapeErrs.Load()); err != nil {
		return err
	}
	if err := opts.Registry.WriteJSON(w, nil); err != nil {
		return err
	}
	if opts.SLO != nil {
		if err := opts.SLO.WriteJSONFields(w); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

// WriteSnapshot writes the unified diagnostic snapshot both daemons dump
// on SIGUSR1 (and smoothload on SLO breach): the runtime line, the full
// metric state in Prometheus text, and the flight-recorder rings.
func WriteSnapshot(w io.Writer, opts Options) error {
	if _, err := fmt.Fprintf(w, "=== %s diagnostic snapshot ===\nruntime: %s\n--- metrics ---\n", opts.Service, Snapshot()); err != nil {
		return err
	}
	if err := writeMetrics(w, opts); err != nil {
		return err
	}
	if len(opts.Recorders) > 0 {
		if _, err := io.WriteString(w, "--- flight recorder ---\n"); err != nil {
			return err
		}
		if err := obs.WriteFlightDump(w, opts.Recorders); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "=== end %s snapshot ===\n", opts.Service)
	return err
}

// NotifySIGUSR1 dumps WriteSnapshot to stderr each time the process
// receives SIGUSR1, from a background goroutine that lives for the life
// of the process.
func NotifySIGUSR1(opts Options) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGUSR1)
	go func() {
		for range ch {
			if err := WriteSnapshot(os.Stderr, opts); err != nil {
				log.Printf("diag: snapshot: %v", err)
			}
		}
	}()
}

// RegisterRuntimeMetrics adds the process-level series both daemons
// expose (goroutines, heap, GC cycles, admission decisions) to an
// engine's obs.Builder, via the engines' Config.Instrument hook.
func RegisterRuntimeMetrics(b *obs.Builder) {
	b.Func("runtime_goroutines", "Live goroutines.", func() int64 {
		return int64(runtime.NumGoroutine())
	})
	b.Func("runtime_heap_inuse_bytes", "Bytes in in-use heap spans.", func() int64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapInuse)
	})
	b.Func("runtime_gc_cycles_total", "Completed GC cycles.", func() int64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.NumGC)
	})
	b.Func("admission_admitted_total", "Admission decisions that admitted: Admissible verdicts and Gate admits.", func() int64 {
		a, _ := admission.Counters()
		return int64(a)
	})
	b.Func("admission_rejected_total", "Admission decisions that rejected: Admissible verdicts and Gate refusals.", func() int64 {
		_, r := admission.Counters()
		return int64(r)
	})
	b.Func("diag_scrape_errors_total", "Diagnostic endpoint write failures.", func() int64 {
		return int64(scrapeErrs.Load())
	})
}

// Snapshot returns a one-line runtime summary: goroutines, heap in use,
// total process memory obtained from the OS, GC cycles, cumulative GC
// pause, and the most recent pause.
func Snapshot() string {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	lastPause := m.PauseNs[(m.NumGC+255)%256]
	return fmt.Sprintf("goroutines=%d heap=%.1fMiB sys=%.1fMiB gc=%d pause_total=%.3fms pause_last=%.3fms",
		runtime.NumGoroutine(),
		float64(m.HeapInuse)/(1<<20),
		float64(m.Sys)/(1<<20),
		m.NumGC,
		float64(m.PauseTotalNs)/1e6,
		float64(lastPause)/1e6)
}
