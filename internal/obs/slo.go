package obs

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// SLO is a streaming service-level accountant over one histogram metric:
// every Update it diffs the cumulative merged distribution against the
// previous window's, computes the window's quantile (p99 by default) and
// compares it to the target. Breach entry is edge-triggered — OnBreach
// fires once per excursion above target, not once per window — which is
// what arms a flight-recorder dump without flooding it while the breach
// persists. The load generator's per-wave histogram resets are detected
// (the cumulative count shrinks) and the window restarts from the fresh
// distribution.
//
// smoothlb's placement tier consumes exactly this signal: a windowed
// tail-latency estimate per backend, cheap enough to refresh every few
// hundred milliseconds.
type SLO struct {
	reg    *Registry
	hist   HistID
	target int64   // breach threshold, in the metric's unit (µs)
	q      float64 // windowed quantile compared against target

	mu       sync.Mutex
	prev     *stats.LogHistogram // cumulative merged state at last Update
	cur      *stats.LogHistogram // scratch for the current merge
	window   *stats.LogHistogram // cur - prev
	inBreach bool
	onBreach func(quantile int64)

	lastQ    atomic.Int64  // last non-empty window's quantile
	windows  atomic.Uint64 // non-empty windows evaluated
	breaches atomic.Uint64 // edge-triggered breach entries

	stopOnce sync.Once
	stop     chan struct{}
}

// NewSLO builds an accountant over hist in reg. target is the breach
// threshold in the metric's unit; q is the windowed quantile to compare
// (use 0.99 for p99). onBreach, if non-nil, is called from Update's
// goroutine on each transition from within-target to breached, with the
// offending quantile value.
func NewSLO(reg *Registry, hist HistID, target int64, q float64, onBreach func(quantile int64)) *SLO {
	return &SLO{
		reg:      reg,
		hist:     hist,
		target:   target,
		q:        q,
		prev:     stats.NewLogHistogram(stats.DefaultLogHistSubBits),
		cur:      stats.NewLogHistogram(stats.DefaultLogHistSubBits),
		window:   stats.NewLogHistogram(stats.DefaultLogHistSubBits),
		onBreach: onBreach,
		stop:     make(chan struct{}),
	}
}

// LastQuantile returns the last non-empty window's quantile value (0
// before the first populated window).
func (s *SLO) LastQuantile() int64 { return s.lastQ.Load() }

// Windows returns how many non-empty windows have been evaluated.
func (s *SLO) Windows() uint64 { return s.windows.Load() }

// Breaches returns how many times the windowed quantile crossed from
// within-target to above-target.
func (s *SLO) Breaches() uint64 { return s.breaches.Load() }

// InBreach reports whether the most recent non-empty window breached.
func (s *SLO) InBreach() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inBreach
}

// Update closes the current window: it merges the published per-shard
// histograms, diffs against the previous cumulative state and evaluates
// the windowed quantile. Empty windows (no new observations) neither
// count nor clear a standing breach. Returns the window's quantile and
// whether it breached.
func (s *SLO) Update() (quantile int64, breached bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg.MergedHist(s.hist, s.cur)
	s.window.SetDelta(s.cur, s.prev)
	s.prev.CopyFrom(s.cur)
	if s.window.Count() == 0 {
		return s.lastQ.Load(), s.inBreach
	}
	quantile = s.window.Quantile(s.q)
	s.lastQ.Store(quantile)
	s.windows.Add(1)
	breached = quantile > s.target
	if breached && !s.inBreach {
		s.breaches.Add(1)
		if s.onBreach != nil {
			s.onBreach(quantile)
		}
	}
	s.inBreach = breached
	return quantile, breached
}

// Start runs Update every interval until Stop. The ticker goroutine is
// the only caller of onBreach once Start is used.
func (s *SLO) Start(interval time.Duration) {
	go func() {
		tk := time.NewTicker(interval)
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				s.Update()
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop halts the Start loop. Safe to call multiple times.
func (s *SLO) Stop() { s.stopOnce.Do(func() { close(s.stop) }) }

// The accountant's own series (slo_target, slo_window_quantile,
// slo_windows, slo_breaches, slo_in_breach) are rendered alongside the
// registry by internal/diag rather than registered on it — the SLO is
// built after the registry is frozen.
func (s *SLO) snapshotInto(ew *errWriter, jsonMode bool) {
	inBreach := int64(0)
	if s.InBreach() {
		inBreach = 1
	}
	if jsonMode {
		ew.printf(`,"slo_target":%d,"slo_window_quantile":%d,"slo_windows":%d,"slo_breaches":%d,"slo_in_breach":%d`,
			s.target, s.LastQuantile(), s.Windows(), s.Breaches(), inBreach)
		return
	}
	ew.printf("# HELP slo_target Breach threshold for the windowed quantile (metric units).\n# TYPE slo_target gauge\nslo_target %d\n", s.target)
	ew.printf("# HELP slo_window_quantile Last non-empty window's tracked quantile.\n# TYPE slo_window_quantile gauge\nslo_window_quantile %d\n", s.LastQuantile())
	ew.printf("# HELP slo_windows Non-empty SLO windows evaluated.\n# TYPE slo_windows counter\nslo_windows %d\n", s.Windows())
	ew.printf("# HELP slo_breaches Edge-triggered breach entries.\n# TYPE slo_breaches counter\nslo_breaches %d\n", s.Breaches())
	ew.printf("# HELP slo_in_breach Whether the latest window breached.\n# TYPE slo_in_breach gauge\nslo_in_breach %d\n", inBreach)
}

// WritePrometheus appends the accountant's series in Prometheus text
// format.
func (s *SLO) WritePrometheus(w io.Writer) error {
	ew := &errWriter{w: w}
	s.snapshotInto(ew, false)
	return ew.err
}

// WriteJSONFields appends the accountant's series as JSON object fields,
// with a leading comma, for embedding inside a /statusz object.
func (s *SLO) WriteJSONFields(w io.Writer) error {
	ew := &errWriter{w: w}
	s.snapshotInto(ew, true)
	return ew.err
}
