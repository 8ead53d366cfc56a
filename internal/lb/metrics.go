package lb

import (
	"fmt"

	"repro/internal/obs"
)

// lbMetrics is the front tier's obs wiring: front-door and placer
// counters recorded globally (they happen off the shard reactors), relay
// counters and the stall/admit-wait histograms recorded per shard, and
// Func gauges exposing live placer state per backend.
type lbMetrics struct {
	reg *obs.Registry

	// Front door + placer (global: GlobalInc only).
	cAccepted    obs.CounterID
	cRejected    obs.CounterID
	cPlaced      obs.CounterID
	cReplaced    obs.CounterID
	cPlaceFailed obs.CounterID
	cDrains      obs.CounterID

	// Relay (shard-local).
	cRelayed   obs.CounterID
	cCompleted obs.CounterID
	cFailed    obs.CounterID
	cStalls    obs.CounterID
	gActive    obs.GaugeID
	hAdmitWait obs.HistID
	hStall     obs.HistID

	// The reactor's own pair, recorded by reactor.Loop.Wake.
	cWakes      obs.CounterID
	hWakeEvents obs.HistID
}

// newLBMetrics declares the tier's series and freezes the registry. The
// caller's Config.Instrument hook (if any) runs against the same builder
// so embedders can add series without a second registry.
func newLBMetrics(e *Engine, shards int, extra func(*obs.Builder)) *lbMetrics {
	m := &lbMetrics{}
	var b obs.Builder
	m.cAccepted = b.Counter("lb_sessions_accepted_total", "Client sessions past the front door.")
	m.cRejected = b.Counter("lb_sessions_rejected_total", "Client sessions refused at the front door (admission, caps, bad hello).")
	m.cPlaced = b.Counter("lb_placements_total", "Successful backend placements.")
	m.cReplaced = b.Counter("lb_replacements_total", "Placements retried on another backend after a dial failure or drain.")
	m.cPlaceFailed = b.Counter("lb_placement_failures_total", "Sessions abandoned after exhausting placement retries.")
	m.cDrains = b.Counter("lb_backend_drains_total", "Backend drain transitions observed (manual or scraped).")
	m.cRelayed = b.Counter("lb_sessions_relayed_total", "Sessions registered on a relay shard.")
	m.cCompleted = b.Counter("lb_sessions_completed_total", "Sessions relayed to a clean backend EOF.")
	m.cFailed = b.Counter("lb_sessions_failed_total", "Sessions retired on a relay error or timeout.")
	m.cStalls = b.Counter("lb_relay_stalls_total", "Relay pauses waiting for client-socket writability.")
	m.gActive = b.Gauge("lb_sessions_active", "Sessions currently registered on relay shards.")
	m.hAdmitWait = b.Histogram("lb_admit_wait_us", "Microseconds from front-door admit to shard registration.")
	m.hStall = b.Histogram("lb_relay_stall_us", "Microseconds a stalled relay waited for the client socket to drain.")
	m.cWakes = b.Counter("lb_wakes_total", "Relay reactor wakes: returns from the poller wait that were served.")
	m.hWakeEvents = b.Histogram("lb_wake_events", "Ready fds served per relay reactor wake.")
	for i := range e.cfg.Backends {
		idx := i
		b.Func(fmt.Sprintf("lb_backend_active{backend=\"%d\"}", idx),
			"Sessions the placer counts against this backend.", func() int64 {
				return e.backends[idx].active.Load()
			})
		b.Func(fmt.Sprintf("lb_backend_headroom_permille{backend=\"%d\"}", idx),
			"Placement headroom for this backend in permille of its slots.", func() int64 {
				return e.headroomPermille(e.backends[idx])
			})
	}
	if extra != nil {
		extra(&b)
	}
	m.reg = obs.Build(&b, shards)
	return m
}
