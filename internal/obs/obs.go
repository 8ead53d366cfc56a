// Package obs is the shard-confined, zero-allocation observability layer
// for the serving and load-generating engines. The paper's guarantees are
// statements about per-step behavior — weighted loss, buffer occupancy,
// playout lag — and this package makes those signals visible while a run
// is live, at a cost the density story can absorb: recording a metric on
// the hot path is a plain uint64 increment (or a stats.LogHistogram
// bucket bump) into slots owned by the recording shard goroutine, with no
// atomics, no locks and no allocation.
//
// # Ownership and the scrape-merge contract
//
// The layer splits every metric into three planes:
//
//   - Shard slots (ShardMetrics, //smoothvet:confined): plain uint64
//     words and histograms written only by the owning shard goroutine.
//     This is the record path, pinned at 0 B/op 0 allocs/op by
//     BenchmarkObsRecord and vetted by the hotpath/shardconfine
//     analyzers.
//   - Published snapshots: once per tick (serve) or reactor wake
//     (loadgen) the shard calls Publish, which copies its live slots into
//     atomic words and its histograms into mutex-guarded snapshot copies.
//     Publication is O(number of metrics), not O(events), so the per-event
//     cost stays a plain increment.
//   - Scrape merge: a scraper (Prometheus /metrics, /statusz, the SLO
//     accountant) sums the published atomics and merges the published
//     histogram snapshots across shards. Summation is exact and
//     order-invariant, so the merged totals are independent of the shard
//     count — the same invariance contract the engines hold for their
//     wire output.
//
// A scrape therefore observes the state as of each shard's most recent
// publish — at most one tick stale — and never contends with the record
// path beyond the per-shard snapshot mutex held during a copy.
//
// The Registry (metric definitions, shard set, global slots) is immutable
// after Build: it is //smoothvet:frozen, so the pubimmut analyzer rejects
// any post-publication write to its tables. Engine-side events that do
// not happen on a shard goroutine (admission rejections on acceptor
// goroutines, dial failures on dialer goroutines) record into the
// registry's global atomic slots instead.
package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Kind classifies a metric for rendering.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a point-in-time value (summed across shards at scrape).
	KindGauge
	// KindHist is a stats.LogHistogram distribution in microseconds (or
	// the unit named by the metric).
	KindHist
	// KindFunc is a callback gauge evaluated at scrape time (runtime
	// stats, admission counters owned by other packages).
	KindFunc
)

// CounterID, GaugeID and HistID index a registry's slot tables. The zero
// value of each is a valid ID only if it was returned by the Builder.
type (
	CounterID int
	GaugeID   int
	HistID    int
)

// Def describes one registered metric.
type Def struct {
	Name string
	Help string
	Kind Kind
	slot int // scalar slot for counters/gauges, hist slot for hists, func slot for funcs
}

// Builder accumulates metric definitions before the registry is frozen.
// The zero value is ready to use. Builders are not safe for concurrent
// use; engines build their registries during construction.
type Builder struct {
	defs    []Def
	nScalar int
	nHist   int
	funcs   []func() int64
}

// Counter registers a monotonic counter and returns its ID.
func (b *Builder) Counter(name, help string) CounterID {
	id := b.nScalar
	b.nScalar++
	b.defs = append(b.defs, Def{Name: name, Help: help, Kind: KindCounter, slot: id})
	return CounterID(id)
}

// Gauge registers a gauge (summed across shards at scrape) and returns
// its ID.
func (b *Builder) Gauge(name, help string) GaugeID {
	id := b.nScalar
	b.nScalar++
	b.defs = append(b.defs, Def{Name: name, Help: help, Kind: KindGauge, slot: id})
	return GaugeID(id)
}

// Histogram registers a log-bucketed distribution and returns its ID.
func (b *Builder) Histogram(name, help string) HistID {
	id := b.nHist
	b.nHist++
	b.defs = append(b.defs, Def{Name: name, Help: help, Kind: KindHist, slot: id})
	return HistID(id)
}

// Func registers a callback gauge evaluated at scrape time. f must be
// safe to call from any goroutine.
func (b *Builder) Func(name, help string, f func() int64) {
	b.defs = append(b.defs, Def{Name: name, Help: help, Kind: KindFunc, slot: len(b.funcs)})
	b.funcs = append(b.funcs, f)
}

// Build freezes the definitions into a Registry with one ShardMetrics
// per shard. The shard count is fixed for the registry's lifetime — the
// engines know theirs at construction.
func Build(b *Builder, shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	shardSet := make([]*ShardMetrics, shards)
	for i := range shardSet {
		m := &ShardMetrics{
			live:  make([]uint64, b.nScalar),
			pub:   make([]atomic.Uint64, b.nScalar),
			hists: make([]*stats.LogHistogram, b.nHist),
			snap:  make([]*stats.LogHistogram, b.nHist),
		}
		for h := 0; h < b.nHist; h++ {
			m.hists[h] = stats.NewLogHistogram(stats.DefaultLogHistSubBits)
			m.snap[h] = stats.NewLogHistogram(stats.DefaultLogHistSubBits)
		}
		shardSet[i] = m
	}
	r := &Registry{
		defs:    append([]Def(nil), b.defs...),
		nScalar: b.nScalar,
		nHist:   b.nHist,
		funcs:   append([]func() int64(nil), b.funcs...),
		global:  make([]atomic.Uint64, b.nScalar),
		shards:  shardSet,
	}
	return r
}

// Registry is the frozen metric table of one engine: definitions, the
// per-shard slot sets, and global atomic slots for events recorded off
// the shard goroutines. All fields are filled by Build and never written
// again; scrapers only read, sum and merge.
//
//smoothvet:frozen immutable after Build; scrape paths only read
type Registry struct {
	defs    []Def
	nScalar int
	nHist   int
	funcs   []func() int64
	// global holds the off-shard half of every scalar: atomic slots
	// written by acceptor/dialer goroutines via GlobalInc.
	// Atomic method calls mutate the words in place without writing the
	// frozen slice header.
	global []atomic.Uint64
	shards []*ShardMetrics
}

// Shard returns shard i's confined slot set. The caller must hand it to
// exactly one goroutine; only that goroutine may record into it.
func (r *Registry) Shard(i int) *ShardMetrics { return r.shards[i] }

// GlobalInc increments the global (off-shard) half of a counter. Safe
// from any goroutine.
func (r *Registry) GlobalInc(id CounterID) { r.global[id].Add(1) }

// ShardMetrics is one shard's live metric slots. The recording methods
// (Inc, Add, Set, Observe) touch only plain shard-owned memory and are
// the zero-alloc record path; Publish copies the live state into the
// shared snapshot planes and is called once per tick by the owner.
//
//smoothvet:confined owned by the recording shard goroutine
type ShardMetrics struct {
	live  []uint64
	hists []*stats.LogHistogram

	//smoothvet:shared atomic snapshot words, stored by Publish, read by scrapers
	pub []atomic.Uint64
	//smoothvet:shared guards snap
	snapMu sync.Mutex
	//smoothvet:shared histogram snapshots, copied under snapMu
	snap []*stats.LogHistogram
}

// Inc increments a counter slot.
//
//smoothvet:noalloc
func (m *ShardMetrics) Inc(id CounterID) { m.live[id]++ }

// Add adds n to a counter slot.
//
//smoothvet:noalloc
func (m *ShardMetrics) Add(id CounterID, n uint64) { m.live[id] += n }

// Set stores a gauge slot.
//
//smoothvet:noalloc
func (m *ShardMetrics) Set(id GaugeID, v uint64) { m.live[id] = v }

// Observe records one observation into a histogram slot.
//
//smoothvet:noalloc
func (m *ShardMetrics) Observe(id HistID, v int64) { m.hists[id].Add(v) }

// HistRef returns the live histogram of one slot. The histogram is
// confined with the rest of the shard's slots: only the owning goroutine
// may Add to or Reset it. Engines that already keep a per-shard
// histogram (the load generator's lag) record straight into the slot
// through this reference instead of double-recording.
func (m *ShardMetrics) HistRef(id HistID) *stats.LogHistogram { return m.hists[id] }

// Publish copies the live slots into the shared snapshot planes: scalar
// words into atomics, histograms into the mutex-guarded snapshot copies.
// Called once per shard tick (or reactor wake) by the owning goroutine;
// cost is proportional to the number of metrics, never the event count.
//
//smoothvet:noalloc
func (m *ShardMetrics) Publish() {
	for i := range m.live {
		m.pub[i].Store(m.live[i])
	}
	m.snapMu.Lock()
	for i, h := range m.hists {
		m.snap[i].CopyFrom(h)
	}
	m.snapMu.Unlock()
}

// ResetHist clears one histogram slot — live and published snapshot —
// from the owning shard goroutine (the load generator's per-wave lag
// reset). The snapshot mutex orders the reset against concurrent scrapes.
func (m *ShardMetrics) ResetHist(id HistID) {
	m.snapMu.Lock()
	m.hists[id].Reset()
	m.snap[id].Reset()
	m.snapMu.Unlock()
}

// Snapshot is a merged view of a registry at one scrape: scalar totals
// (global + sum of shard publications), merged histograms, and evaluated
// callback gauges, indexed by the defs' slot numbers. Reuse one Snapshot
// across scrapes to amortize its allocations.
type Snapshot struct {
	Scalars []uint64
	Hists   []*stats.LogHistogram
	Funcs   []int64
}

// Snapshot merges the registry's published state into s and returns s
// (allocating the planes on first use).
func (r *Registry) Snapshot(s *Snapshot) *Snapshot {
	if s == nil {
		s = &Snapshot{}
	}
	if cap(s.Scalars) < r.nScalar {
		s.Scalars = make([]uint64, r.nScalar)
	}
	s.Scalars = s.Scalars[:r.nScalar]
	for i := range s.Scalars {
		s.Scalars[i] = r.global[i].Load()
	}
	if len(s.Hists) < r.nHist {
		s.Hists = make([]*stats.LogHistogram, r.nHist)
		for i := range s.Hists {
			s.Hists[i] = stats.NewLogHistogram(stats.DefaultLogHistSubBits)
		}
	}
	for i := 0; i < r.nHist; i++ {
		s.Hists[i].Reset()
	}
	for _, m := range r.shards {
		for i := range s.Scalars {
			s.Scalars[i] += m.pub[i].Load()
		}
		m.snapMu.Lock()
		for i := 0; i < r.nHist; i++ {
			s.Hists[i].Merge(m.snap[i])
		}
		m.snapMu.Unlock()
	}
	if cap(s.Funcs) < len(r.funcs) {
		s.Funcs = make([]int64, len(r.funcs))
	}
	s.Funcs = s.Funcs[:len(r.funcs)]
	for i, f := range r.funcs {
		s.Funcs[i] = f()
	}
	return s
}

// MergedHist merges the published snapshots of one histogram slot across
// all shards into dst (which is Reset first). The SLO accountant uses
// this to window a cumulative distribution.
func (r *Registry) MergedHist(id HistID, dst *stats.LogHistogram) {
	dst.Reset()
	for _, m := range r.shards {
		m.snapMu.Lock()
		dst.Merge(m.snap[id])
		m.snapMu.Unlock()
	}
}

// errWriter accumulates the first write error so the render loops stay
// linear; every public writer returns it once at the end.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}

// histQuantiles are the quantiles rendered for histogram metrics, in
// Prometheus summary style.
var histQuantiles = []struct {
	label string // Prometheus quantile label
	key   string // JSON field name
	q     float64
}{
	{"0.5", "p50", 0.50},
	{"0.9", "p90", 0.90},
	{"0.99", "p99", 0.99},
	{"0.999", "p999", 0.999},
}

// WritePrometheus renders the merged registry state in the Prometheus
// text exposition format (version 0.0.4). Output order is the
// registration order of the defs and carries no timestamps, so two
// scrapes of identical state are byte-identical — the determinism the
// scrape tests pin.
func (r *Registry) WritePrometheus(w io.Writer, s *Snapshot) error {
	s = r.Snapshot(s)
	ew := &errWriter{w: w}
	for _, d := range r.defs {
		switch d.Kind {
		case KindCounter:
			ew.printf("# HELP %s %s\n# TYPE %s counter\n%s %d\n", d.Name, d.Help, d.Name, d.Name, s.Scalars[d.slot])
		case KindGauge:
			ew.printf("# HELP %s %s\n# TYPE %s gauge\n%s %d\n", d.Name, d.Help, d.Name, d.Name, s.Scalars[d.slot])
		case KindFunc:
			ew.printf("# HELP %s %s\n# TYPE %s gauge\n%s %d\n", d.Name, d.Help, d.Name, d.Name, s.Funcs[d.slot])
		case KindHist:
			h := s.Hists[d.slot]
			ew.printf("# HELP %s %s\n# TYPE %s summary\n", d.Name, d.Help, d.Name)
			for _, hq := range histQuantiles {
				ew.printf("%s{quantile=%q} %d\n", d.Name, hq.label, h.Quantile(hq.q))
			}
			ew.printf("%s_sum %d\n%s_count %d\n%s_min %d\n%s_max %d\n",
				d.Name, h.Sum(), d.Name, h.Count(), d.Name, h.Min(), d.Name, h.Max())
		}
	}
	return ew.err
}

// WriteJSON renders the merged registry state as one JSON object keyed
// by metric name (histograms expand to an object of count/sum/min/max
// and the standard quantiles). Field order follows registration order;
// no timestamps, same determinism contract as WritePrometheus.
func (r *Registry) WriteJSON(w io.Writer, s *Snapshot) error {
	s = r.Snapshot(s)
	ew := &errWriter{w: w}
	ew.printf("{")
	for i, d := range r.defs {
		if i > 0 {
			ew.printf(",")
		}
		switch d.Kind {
		case KindCounter, KindGauge:
			ew.printf("%q:%d", d.Name, s.Scalars[d.slot])
		case KindFunc:
			ew.printf("%q:%d", d.Name, s.Funcs[d.slot])
		case KindHist:
			h := s.Hists[d.slot]
			ew.printf("%q:{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d", d.Name, h.Count(), h.Sum(), h.Min(), h.Max())
			for _, hq := range histQuantiles {
				ew.printf(",%q:%d", hq.key, h.Quantile(hq.q))
			}
			ew.printf("}")
		}
	}
	ew.printf("}\n")
	return ew.err
}
