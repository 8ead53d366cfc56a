package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// testBuilder registers one metric of each kind and returns the IDs.
func testBuilder() (*Builder, CounterID, GaugeID, HistID) {
	var b Builder
	c := b.Counter("test_events_total", "Events recorded.")
	g := b.Gauge("test_active", "Active things.")
	h := b.Histogram("test_latency_us", "Latency, microseconds.")
	b.Func("test_answer", "A constant callback gauge.", func() int64 { return 42 })
	return &b, c, g, h
}

// TestScrapeMergeShardInvariance pins the scrape-merge contract: the same
// event stream distributed over 1, 2 or 8 shards produces identical
// merged totals and bit-identical merged histograms — the shard count is
// an implementation detail invisible to scrapers.
func TestScrapeMergeShardInvariance(t *testing.T) {
	// A deterministic event stream: (value, gauge) pairs.
	values := make([]int64, 500)
	for i := range values {
		values[i] = int64((i*i)%9000 + 1)
	}

	type merged struct {
		scalars []uint64
		counts  int64
		sum     int64
		min     int64
		max     int64
		p99     int64
	}
	run := func(shards int) merged {
		b, c, g, h := testBuilder()
		r := Build(b, shards)
		for i, v := range values {
			m := r.Shard(i % shards)
			m.Inc(c)
			m.Observe(h, v)
			m.Set(g, uint64(i%shards+1)) // final per-shard gauge: shard index + 1
		}
		for range 7 {
			r.GlobalInc(c) // off-shard half of the counter
		}
		for i := 0; i < shards; i++ {
			r.Shard(i).Publish()
		}
		s := r.Snapshot(nil)
		hist := s.Hists[0]
		return merged{
			scalars: append([]uint64(nil), s.Scalars...),
			counts:  hist.Count(), sum: hist.Sum(), min: hist.Min(), max: hist.Max(),
			p99: hist.Quantile(0.99),
		}
	}

	base := run(1)
	if got := base.scalars[0]; got != uint64(len(values))+7 {
		t.Fatalf("counter total = %d, want %d", got, len(values)+7)
	}
	if base.counts != int64(len(values)) {
		t.Fatalf("hist count = %d, want %d", base.counts, len(values))
	}
	for _, shards := range []int{2, 8} {
		got := run(shards)
		if got.counts != base.counts || got.sum != base.sum || got.min != base.min ||
			got.max != base.max || got.p99 != base.p99 {
			t.Errorf("shards=%d merged hist = %+v, want %+v", shards, got, base)
		}
		if got.scalars[0] != base.scalars[0] {
			t.Errorf("shards=%d counter = %d, want %d", shards, got.scalars[0], base.scalars[0])
		}
		// The gauge sums shard-local values: sum of (i+1) over shards.
		want := uint64(shards * (shards + 1) / 2)
		if got.scalars[1] != want {
			t.Errorf("shards=%d gauge sum = %d, want %d", shards, got.scalars[1], want)
		}
	}
}

// TestScrapeSeesOnlyPublished pins the publication boundary: recorded but
// unpublished state is invisible to Snapshot.
func TestScrapeSeesOnlyPublished(t *testing.T) {
	b, c, _, h := testBuilder()
	r := Build(b, 1)
	m := r.Shard(0)
	m.Inc(c)
	m.Observe(h, 100)
	s := r.Snapshot(nil)
	if s.Scalars[0] != 0 || s.Hists[0].Count() != 0 {
		t.Fatalf("unpublished state leaked into snapshot: scalars=%v histcount=%d", s.Scalars, s.Hists[0].Count())
	}
	m.Publish()
	s = r.Snapshot(s)
	if s.Scalars[0] != 1 || s.Hists[0].Count() != 1 {
		t.Fatalf("published state missing from snapshot: scalars=%v histcount=%d", s.Scalars, s.Hists[0].Count())
	}
}

// TestWritePrometheusDeterministic pins the determinism contract: two
// scrapes of identical state are byte-identical, ordered by registration.
func TestWritePrometheusDeterministic(t *testing.T) {
	b, c, g, h := testBuilder()
	r := Build(b, 4)
	for i := 0; i < 200; i++ {
		m := r.Shard(i % 4)
		m.Inc(c)
		m.Set(g, uint64(i))
		m.Observe(h, int64(i*3+1))
	}
	for i := 0; i < 4; i++ {
		r.Shard(i).Publish()
	}
	var a, bb bytes.Buffer
	if err := r.WritePrometheus(&a, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&bb, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), bb.Bytes()) {
		t.Fatalf("two scrapes of identical state differ:\n%s\n---\n%s", a.Bytes(), bb.Bytes())
	}
	for _, want := range []string{
		"# TYPE test_events_total counter",
		"# TYPE test_active gauge",
		"# TYPE test_latency_us summary",
		`test_latency_us{quantile="0.99"}`,
		"test_latency_us_count 200",
		"test_answer 42",
	} {
		if !bytes.Contains(a.Bytes(), []byte(want)) {
			t.Errorf("scrape missing %q in:\n%s", want, a.Bytes())
		}
	}
}

// TestWriteJSONValid pins that the JSON rendering parses and carries the
// merged values.
func TestWriteJSONValid(t *testing.T) {
	b, c, _, h := testBuilder()
	r := Build(b, 2)
	r.Shard(0).Inc(c)
	r.Shard(1).Inc(c)
	r.Shard(0).Observe(h, 50)
	r.Shard(0).Publish()
	r.Shard(1).Publish()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
	}
	if v, ok := got["test_events_total"].(float64); !ok || v != 2 {
		t.Errorf("test_events_total = %v, want 2", got["test_events_total"])
	}
	hist, ok := got["test_latency_us"].(map[string]any)
	if !ok {
		t.Fatalf("test_latency_us not an object: %v", got["test_latency_us"])
	}
	for _, key := range []string{"count", "sum", "min", "max", "p50", "p90", "p99", "p999"} {
		if _, ok := hist[key]; !ok {
			t.Errorf("histogram JSON missing %q: %v", key, hist)
		}
	}
}

// TestResetHist pins that a reset clears both the live slot and its
// published snapshot.
func TestResetHist(t *testing.T) {
	b, _, _, h := testBuilder()
	r := Build(b, 1)
	m := r.Shard(0)
	m.Observe(h, 10)
	m.Publish()
	m.ResetHist(h)
	s := r.Snapshot(nil)
	if s.Hists[0].Count() != 0 {
		t.Fatalf("snapshot survived ResetHist: count=%d", s.Hists[0].Count())
	}
	m.Observe(h, 20)
	m.Publish()
	s = r.Snapshot(s)
	if s.Hists[0].Count() != 1 || s.Hists[0].Min() != 20 {
		t.Fatalf("post-reset recording lost: count=%d min=%d", s.Hists[0].Count(), s.Hists[0].Min())
	}
}

// TestFlightRecorderWraparound pins the ring semantics: capacity bounds
// the retained set, dumps come out oldest-first with contiguous sequence
// numbers, and the drop count tracks overwrites.
func TestFlightRecorderWraparound(t *testing.T) {
	const capacity = 8
	r := NewFlightRecorder(capacity)
	if got := r.Len(); got != 0 {
		t.Fatalf("fresh ring Len = %d", got)
	}
	const total = 21
	for i := 0; i < total; i++ {
		r.Record(int64(i*1000), EvAdmit, uint64(i), int64(-i))
	}
	if got := r.Len(); got != capacity {
		t.Fatalf("Len after wrap = %d, want %d", got, capacity)
	}
	if got := r.Dropped(); got != total-capacity {
		t.Fatalf("Dropped = %d, want %d", got, total-capacity)
	}
	evs := r.CopyInto(nil)
	if len(evs) != capacity {
		t.Fatalf("CopyInto returned %d events, want %d", len(evs), capacity)
	}
	for i, ev := range evs {
		wantSeq := uint32(total - capacity + i)
		if ev.Seq != wantSeq {
			t.Errorf("event %d: Seq = %d, want %d (not oldest-first)", i, ev.Seq, wantSeq)
		}
		if ev.Sess != uint64(wantSeq) || ev.Tick != int64(wantSeq)*1000 {
			t.Errorf("event %d: payload %+v does not match seq %d", i, ev, wantSeq)
		}
	}
}

// TestWriteFlightDump pins the dump format and its determinism.
func TestWriteFlightDump(t *testing.T) {
	r0 := NewFlightRecorder(4)
	r1 := NewFlightRecorder(4)
	r0.Record(100, EvAdmit, 1, 0)
	r0.Record(200, EvRetire, 1, 25)
	r1.Record(150, EvError, 2, 3)
	var a, b bytes.Buffer
	if err := WriteFlightDump(&a, []*FlightRecorder{r0, r1, nil}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFlightDump(&b, []*FlightRecorder{r0, r1, nil}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two dumps of identical state differ")
	}
	for _, want := range []string{
		"# shard 0: 2 events, 0 dropped",
		"shard=0 seq=1 tick=200 sess=1 kind=retire arg=25",
		"shard=1 seq=0 tick=150 sess=2 kind=error arg=3",
	} {
		if !bytes.Contains(a.Bytes(), []byte(want)) {
			t.Errorf("dump missing %q in:\n%s", want, a.Bytes())
		}
	}
	var j bytes.Buffer
	if err := WriteFlightJSON(&j, []*FlightRecorder{r0, r1}); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(j.Bytes(), &evs); err != nil {
		t.Fatalf("invalid flight JSON: %v\n%s", err, j.Bytes())
	}
	if len(evs) != 3 {
		t.Fatalf("flight JSON has %d events, want 3", len(evs))
	}
}

// TestSLOAccounting pins the accountant: windowed quantiles, edge-
// triggered breaches, empty-window behavior and reset detection.
func TestSLOAccounting(t *testing.T) {
	var b Builder
	h := b.Histogram("lag_us", "lag")
	r := Build(&b, 1)
	m := r.Shard(0)

	var breachVals []int64
	s := NewSLO(r, h, 1000, 0.99, func(q int64) { breachVals = append(breachVals, q) })

	// Window 1: all observations well under target.
	for i := 0; i < 100; i++ {
		m.Observe(h, 100)
	}
	m.Publish()
	q, breached := s.Update()
	if breached || q > 1000 {
		t.Fatalf("window 1: q=%d breached=%v, want under-target", q, breached)
	}
	if s.Windows() != 1 || s.Breaches() != 0 {
		t.Fatalf("window 1: windows=%d breaches=%d", s.Windows(), s.Breaches())
	}

	// Window 2: empty — nothing recorded. Neither counts nor breaches.
	q2, breached2 := s.Update()
	if s.Windows() != 1 || breached2 || q2 != q {
		t.Fatalf("empty window counted: windows=%d breached=%v q=%d (want %d)", s.Windows(), breached2, q2, q)
	}

	// Window 3: all slow — breach entry fires exactly once.
	for i := 0; i < 100; i++ {
		m.Observe(h, 50000)
	}
	m.Publish()
	if _, breached := s.Update(); !breached {
		t.Fatal("window 3: want breach")
	}
	if len(breachVals) != 1 || s.Breaches() != 1 || !s.InBreach() {
		t.Fatalf("breach entry: calls=%d breaches=%d in=%v", len(breachVals), s.Breaches(), s.InBreach())
	}

	// Window 4: still slow — standing breach, no second callback.
	for i := 0; i < 100; i++ {
		m.Observe(h, 60000)
	}
	m.Publish()
	s.Update()
	if len(breachVals) != 1 || s.Breaches() != 1 {
		t.Fatalf("standing breach re-fired: calls=%d breaches=%d", len(breachVals), s.Breaches())
	}

	// Window 5: recovery clears the breach state.
	for i := 0; i < 100; i++ {
		m.Observe(h, 10)
	}
	m.Publish()
	if _, breached := s.Update(); breached || s.InBreach() {
		t.Fatal("window 5: breach did not clear on recovery")
	}

	// Window 6: a wave reset (histogram shrinks) restarts the window
	// from the fresh distribution instead of producing negative deltas.
	m.ResetHist(h)
	for i := 0; i < 50; i++ {
		m.Observe(h, 200)
	}
	m.Publish()
	q6, breached6 := s.Update()
	if breached6 || q6 > 1000 || q6 == 0 {
		t.Fatalf("post-reset window: q=%d breached=%v", q6, breached6)
	}

	// Second breach excursion increments the edge counter again.
	for i := 0; i < 100; i++ {
		m.Observe(h, 70000)
	}
	m.Publish()
	s.Update()
	if s.Breaches() != 2 || len(breachVals) != 2 {
		t.Fatalf("second excursion: breaches=%d calls=%d", s.Breaches(), len(breachVals))
	}
}

// TestSLOWritePrometheus pins the accountant's own series rendering.
func TestSLOWritePrometheus(t *testing.T) {
	var b Builder
	h := b.Histogram("lag_us", "lag")
	r := Build(&b, 1)
	s := NewSLO(r, h, 5000, 0.99, nil)
	r.Shard(0).Observe(h, 123)
	r.Shard(0).Publish()
	s.Update()
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"slo_target 5000", "slo_windows 1", "slo_breaches 0", "slo_in_breach 0"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("SLO scrape missing %q in:\n%s", want, buf.Bytes())
		}
	}
	var jb bytes.Buffer
	fmt.Fprint(&jb, "{\"x\":0")
	if err := s.WriteJSONFields(&jb); err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(&jb, "}")
	if !json.Valid(jb.Bytes()) {
		t.Errorf("SLO JSON fields do not embed validly: %s", jb.Bytes())
	}
}

// TestMergedHist pins the accountant's input: cross-shard merge of one
// slot equals the union of the shards' observations.
func TestMergedHist(t *testing.T) {
	var b Builder
	h := b.Histogram("lag_us", "lag")
	r := Build(&b, 3)
	for i := 0; i < 3; i++ {
		m := r.Shard(i)
		for j := 0; j < 10; j++ {
			m.Observe(h, int64(i*100+j+1))
		}
		m.Publish()
	}
	dst := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
	r.MergedHist(h, dst)
	if dst.Count() != 30 {
		t.Fatalf("merged count = %d, want 30", dst.Count())
	}
	if dst.Min() != 1 || dst.Max() != 210 {
		t.Fatalf("merged extremes = [%d, %d], want [1, 210]", dst.Min(), dst.Max())
	}
}

// BenchmarkObsRecord pins the record path at zero allocations: counter
// increments, gauge stores, histogram observations and flight-recorder
// appends. scripts/verify.sh holds every sub-benchmark at exactly
// 0 B/op 0 allocs/op.
func BenchmarkObsRecord(b *testing.B) {
	defer quietRuntime()()
	bld, c, g, h := testBuilder()
	r := Build(bld, 1)
	m := r.Shard(0)
	rec := NewFlightRecorder(DefaultFlightRecEvents)

	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Inc(c)
		}
	})
	b.Run("gauge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Set(g, uint64(i))
		}
	})
	b.Run("hist", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Observe(h, int64(i&0xffff))
		}
	})
	b.Run("flight", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Record(int64(i), EvAdmit, uint64(i), 0)
		}
	})
	b.Run("publish", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Publish()
		}
	})
}

// quietRuntime keeps the runtime's own allocations out of the timed
// windows: it drops to one P for the caller's duration (restore with the
// returned function), as testing.AllocsPerRun does, and parks spare
// threads. The benchmark timer reads memory statistics under a
// stop-the-world; restarting the world may wake a P, and with no idle
// thread the runtime starts one inside the window (runtime.allocm: about
// 5 KB in 5 mallocs, 1049 B/op, 1 allocs/op at -benchtime 5x). With one P a
// background goroutine such as the scavenger also waits for the timed
// loop to yield. Each goroutine here holds its own thread while it sleeps.
// internal/serve carries the same helper.
func quietRuntime() (restore func()) {
	procs := runtime.GOMAXPROCS(1)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			time.Sleep(time.Millisecond)
		}()
	}
	wg.Wait()
	return func() { runtime.GOMAXPROCS(procs) }
}
