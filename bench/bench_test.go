package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/stats"
)

// TestFracAtMost checks the on-time fraction read off a LogHistogram
// against the exact sorted samples: it must lie between the exact shares
// at the two edges of the bucket the limit falls in (1/32 relative width).
func TestFracAtMost(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
	samples := make([]int64, 50000)
	for i := range samples {
		v := int64(math.Exp(rng.NormFloat64()*1.2 + 7)) // log-normal round 1 ms, in us
		samples[i] = v
		h.Add(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	exact := func(limit float64) float64 {
		n := sort.Search(len(samples), func(i int) bool { return float64(samples[i]) > limit })
		return float64(n) / float64(len(samples))
	}
	for _, limit := range []int64{1, 40, 500, 1097, 2000, 20000, 1 << 40} {
		got := fracAtMost(h, limit)
		lo, hi := exact(float64(limit)*(1-1.0/32)), exact(float64(limit)*(1+1.0/32))
		if got < lo || got > hi {
			t.Errorf("fracAtMost(%d) = %.5f, exact share is between %.5f and %.5f", limit, got, lo, hi)
		}
	}
	if got := fracAtMost(stats.NewLogHistogram(stats.DefaultLogHistSubBits), 10); got != 0 {
		t.Errorf("empty histogram: got %v, want 0", got)
	}
}

func TestMedianOfWaves(t *testing.T) {
	waves := []float64{0.99, 0.15, 1, 0.998, 1}
	if got := median(waves); got != 0.998 {
		t.Errorf("median of five waves = %v, want the middle one 0.998", got)
	}
	if waves[1] != 0.15 {
		t.Errorf("median reordered its input: %v", waves)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 1); got != 5 {
		t.Errorf("quantile 1 = %v, want the maximum", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int64
		label string
		ok    bool
	}{{5, "", false}, {100, "p90", true}, {1000, "p99", true}, {250000, "p99.99", true}, {99999, "p99.9", true}} {
		label, _, ok := tailPercentile(c.n)
		if label != c.label || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %q %v, want %q %v", c.n, label, ok, c.label, c.ok)
		}
	}
}

// TestSelfTime: a span's self time is its duration minus the union of its
// children's intervals, clipped to the span.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "wave", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},   // overlaps a: union is [10,60]
		{Name: "c", Start: 90, End: 120, Parent: 0},  // sticks out: clipped to [90,100]
		{Name: "a1", Start: 15, End: 20, Parent: 1},  // grandchild: only a's self shrinks
		{Name: "late", Start: 5, End: 8, Parent: -1}, // a second root
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 3}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the names, units and directions
// the program prints equal to the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jm `json:"end_to_end"`
		PerLayer  []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	compare := func(kind string, defs []metricDef, declared []jm) {
		have := map[string]jm{}
		for _, m := range declared {
			if _, dup := have[m.Name]; dup {
				t.Errorf("%s metric %s is declared twice", kind, m.Name)
			}
			have[m.Name] = m
		}
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s metric %q (unit %q) is outside the naming rules", kind, d.name, d.unit)
			}
			m, ok := have[d.name]
			if !ok {
				t.Errorf("%s metric %s is printed but missing from BENCHMARK.json", kind, d.name)
				continue
			}
			if m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %s: BENCHMARK.json says %s/%s, the program %s/%s", kind, d.name, m.Unit, m.Better, d.unit, d.better)
			}
			delete(have, d.name)
		}
		for name := range have {
			t.Errorf("%s metric %s is in BENCHMARK.json but never printed", kind, name)
		}
	}
	compare("end-to-end", endToEnd, spec.EndToEnd)
	compare("per-layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json says %s, the program %s", i, w.Name, workloads[i])
		}
		if w.Name != "sim_sweep" && netSpecs[w.Name].sessions == 0 {
			t.Errorf("workload %s has no spec", w.Name)
		}
	}
}

// TestFdBudget: the session counts stay under the descriptor budget at 2
// descriptors per direct session and 7 per tier session.
func TestFdBudget(t *testing.T) {
	for name, spec := range netSpecs {
		per := 2
		if spec.tier {
			per = 7
		}
		if got := per * spec.sessions; got > fdBudget {
			t.Errorf("%s holds %d descriptors, budget %d", name, got, fdBudget)
		}
	}
}

// TestNetworkSmoke runs every network workload at 16 sessions of 8 frames,
// untraced and traced: every output check passes, every end-to-end metric
// is measured and non-zero, and the traced run writes its trace.
func TestNetworkSmoke(t *testing.T) {
	for name, spec := range netSpecs {
		spec.sessions, spec.frames, spec.step = 16, 8, 2*time.Millisecond
		for _, traced := range []bool{false, true} {
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			res, err := runNet(spec, 7, 0.01, tr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			for _, f := range res.failures {
				t.Errorf("%s traced=%v: failed check: %s", name, traced, f)
			}
			for _, d := range endToEnd {
				if d.name != "peak_rss_mb" && !(res.vals[d.name] > 0) {
					t.Errorf("%s traced=%v: %s = %v, want > 0", name, traced, d.name, res.vals[d.name])
				}
			}
			if res.vals["on_time_frac"] > 1 {
				t.Errorf("%s: on_time_frac %v > 1", name, res.vals["on_time_frac"])
			}
			if !traced {
				continue
			}
			// A traced run makes at least two waves, all served from the cohort plan.
			if hits := res.vals["serve.cohort_hits"]; hits < 2*16 || res.vals["serve.cohort_misses"] != 0 {
				t.Errorf("%s: %v cohort hits and %v misses, want at least 32 and 0", name, hits, res.vals["serve.cohort_misses"])
			}
			if spec.tier && res.vals["lb.handle_p50_us"] <= 0 {
				t.Errorf("%s: no lb.Handle spans", name)
			}
			path, err := tr.write(t.TempDir(), name, envHeader())
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Spans     []json.RawMessage `json:"spans"`
				Snapshots []json.RawMessage `json:"snapshots"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("%s: trace file is not JSON: %v", name, err)
			}
			if len(doc.Spans) == 0 || len(doc.Snapshots) == 0 {
				t.Errorf("%s: trace has %d spans and %d snapshots", name, len(doc.Spans), len(doc.Snapshots))
			}
		}
	}
}

// TestReference: with nothing dropped the reference session delivers the
// whole clip, and its counts are consistent with each other.
func TestReference(t *testing.T) {
	clip, err := genClip(40, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildReference(clip)
	if err != nil {
		t.Fatal(err)
	}
	if ref.dropped == 0 && ref.bytes != int64(clip.TotalSize()) {
		t.Errorf("reference delivers %d payload bytes of a %d-byte clip with no drops", ref.bytes, clip.TotalSize())
	}
	if ref.played == 0 || ref.steps == 0 || ref.ticks < ref.steps || len(ref.msgs) < ref.played {
		t.Errorf("implausible reference: %d played, %d steps, %d ticks, %d messages", ref.played, ref.steps, ref.ticks, len(ref.msgs))
	}
}
