package loadgen

import (
	"repro/internal/obs"
)

// loadMetrics bundles the generator's obs registry with the slot IDs its
// shards record through. The step-lag histogram doubles as the shard's
// lag accumulator (shard.lag aliases the live slot), so the per-message
// hot path pays nothing extra for being scrapeable.
type loadMetrics struct {
	reg *obs.Registry

	// Shard-recorded counters.
	cAdmitted  obs.CounterID
	cCompleted obs.CounterID
	cMidFailed obs.CounterID

	// Dialer-recorded (global) counters.
	cDialFailed obs.CounterID
	cHsFailed   obs.CounterID

	// Gauges and distributions.
	gActive    obs.GaugeID
	hLag       obs.HistID
	hOccupancy obs.HistID

	// The reactor's own pair, recorded by reactor.Loop.Wake.
	cWakes      obs.CounterID
	hWakeEvents obs.HistID
}

// newLoadMetrics registers the load generator's metric set (plus any
// daemon-provided extras) and freezes it for the given shard count.
func newLoadMetrics(shards int, extra func(*obs.Builder)) *loadMetrics {
	var b obs.Builder
	m := &loadMetrics{}
	m.cAdmitted = b.Counter("loadgen_sessions_admitted_total", "Sessions registered on a reactor shard after handshake.")
	m.cCompleted = b.Counter("loadgen_sessions_completed_total", "Sessions that received End and retired cleanly.")
	m.cMidFailed = b.Counter("loadgen_sessions_midstream_failed_total", "Sessions that failed after registration (decode error, EOF, idle timeout).")
	m.cDialFailed = b.Counter("loadgen_dial_failures_total", "Sessions that failed in the dial stage.")
	m.cHsFailed = b.Counter("loadgen_handshake_failures_total", "Sessions that failed in the handshake stage.")
	m.gActive = b.Gauge("loadgen_sessions_active", "Sessions currently registered, summed across shards.")
	m.hLag = b.Histogram("loadgen_step_lag_us", "Per-message step lag against the pacing schedule, microseconds (reset per wave).")
	m.hOccupancy = b.Histogram("loadgen_recv_window_occupancy", "Peak receive-window occupancy per retired session, slices.")
	m.cWakes = b.Counter("loadgen_wakes_total", "Reactor wakes: returns from the poller wait that were served.")
	m.hWakeEvents = b.Histogram("loadgen_wake_events", "Ready fds served per reactor wake.")
	if extra != nil {
		extra(&b)
	}
	m.reg = obs.Build(&b, shards)
	return m
}

// Obs returns the generator's metric registry for diag endpoints and
// tests.
func (e *Engine) Obs() *obs.Registry { return e.met.reg }

// StepLagHist returns the step-lag histogram's slot ID — the series the
// -slo accountant windows.
func (e *Engine) StepLagHist() obs.HistID { return e.met.hLag }

// FlightRecorders returns the per-shard flight-recorder rings, indexed by
// shard.
func (e *Engine) FlightRecorders() []*obs.FlightRecorder { return e.recs }
