package serve

import "repro/internal/obs"

// engineMetrics bundles the engine's obs registry with the slot IDs its
// shards record through. Registration order fixes the /metrics output
// order, so new series belong at the end of newEngineMetrics.
type engineMetrics struct {
	reg *obs.Registry

	// Shard-recorded counters.
	cAdmitted      obs.CounterID
	cRetired       obs.CounterID
	cFailed        obs.CounterID
	cStalledOut    obs.CounterID
	cTickOverruns  obs.CounterID
	cCatchupSteps  obs.CounterID
	cForgivenSteps obs.CounterID

	// Acceptor-recorded (global) counters.
	cRejected   obs.CounterID
	cCohortHits obs.CounterID

	// Gauges and distributions.
	gActive  obs.GaugeID
	hStepDur obs.HistID
}

// newEngineMetrics registers the serving engine's metric set (plus any
// daemon-provided extras) and freezes it for the given shard count.
func newEngineMetrics(e *Engine, shards int, extra func(*obs.Builder)) *engineMetrics {
	var b obs.Builder
	m := &engineMetrics{}
	m.cAdmitted = b.Counter("serve_sessions_admitted_total", "Sessions registered on a shard after handshake.")
	m.cRetired = b.Counter("serve_sessions_retired_total", "Sessions that drained cleanly to End.")
	m.cFailed = b.Counter("serve_sessions_failed_total", "Sessions that ended with an error (write failure, abort).")
	m.cStalledOut = b.Counter("serve_stalled_out_total", "Sessions retired because their client stopped reading: bytes stayed unsent while more than D steps came due.")
	m.cRejected = b.Counter("serve_sessions_rejected_total", "Connections refused before registration (draining, session limit, bad or timed-out handshake, unbuildable plan).")
	m.cCohortHits = b.Counter("serve_cohort_hits_total", "Handshakes registered under the shared cohort plan for their (delay, buffer).")
	m.gActive = b.Gauge("serve_sessions_active", "Sessions currently registered, summed across shards.")
	m.hStepDur = b.Histogram("serve_step_duration_us", "Wall-clock time from a shard tick's due time to the end of its step (all sessions brought up to the tick), microseconds; includes how late the shard woke.")
	b.Func("serve_draining", "1 while the engine refuses new sessions (Drain/Close in progress).", func() int64 {
		if e.closing.Load() {
			return 1
		}
		return 0
	})
	m.cTickOverruns = b.Counter("serve_tick_overruns_total", "Shard wakes that found more than one tick due (the shard overran its clock).")
	m.cCatchupSteps = b.Counter("serve_catchup_steps_total", "Steps sent beyond the first in one tick to sessions catching up (coalesced into one write).")
	m.cForgivenSteps = b.Counter("serve_forgiven_steps_total", "Steps a late session was owed beyond its burst bound of D steps; its schedule slid by that many ticks instead.")
	if extra != nil {
		extra(&b)
	}
	m.reg = obs.Build(&b, shards)
	return m
}

// noteSessionEnd records one session retirement into the shard's slots
// and flight ring: counters, the stalled-out classifier, and the
// retire/error lifecycle event. Runs on the shard goroutine, downstream
// of the noalloc step path — the tick stamp comes from the shard clock.
//
//smoothvet:noalloc
func (sh *shard) noteSessionEnd(id uint64, steps int, err error) {
	now := sh.now
	m := sh.eng.met
	if err == nil {
		sh.met.Inc(m.cRetired)
		sh.rec.Record(now, obs.EvRetire, id, int64(steps))
		return
	}
	sh.met.Inc(m.cFailed)
	if err == errStalledOut {
		sh.met.Inc(m.cStalledOut)
		sh.rec.Record(now, obs.EvStalledOut, id, int64(steps))
	}
	sh.rec.Record(now, obs.EvError, id, int64(steps))
}

// Obs returns the engine's metric registry for diag endpoints and tests.
func (e *Engine) Obs() *obs.Registry { return e.met.reg }

// StepDurationHist returns the shard-step-duration histogram's slot ID —
// the series a serving-side SLO accountant windows. A sample runs from the
// due time of the tick served to the end of its step.
func (e *Engine) StepDurationHist() obs.HistID { return e.met.hStepDur }

// FlightRecorders returns the per-shard flight-recorder rings, indexed by
// shard.
func (e *Engine) FlightRecorders() []*obs.FlightRecorder { return e.recs }
