// Command smoothbench is the repository's benchmark: one process that runs
// one named workload against the simulation core, the serving engine, the
// client engine and the front tier, all in-process, and prints every
// metric by name with its unit. See README.md.
//
//	go run -C bench . -workload direct_paced -seed 1 -seconds 14 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/experiment"
)

// workloads lists the named workloads in the order BENCHMARK.json does.
var workloads = []string{"sim_sweep", "direct_paced", "direct_saturated", "direct_churn", "tier_paced"}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 14, "how long to measure")
	trace := flag.Int("trace", 0, "1 records spans, writes out/trace-<workload>.json and prints the per-layer metrics; 0 prints the end-to-end metrics")
	out := flag.String("out", "out", "directory the trace file is written to")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "smoothbench: want -workload NAME -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	var res *result
	var err error
	if spec, ok := netSpecs[*workload]; ok {
		res, err = runNet(spec, *seed, *seconds, tr)
	} else if *workload == "sim_sweep" {
		res, err = runSim(experiment.Config{Frames: simFrames, Seed: *seed}, *seconds, tr)
	} else {
		err = fmt.Errorf("unknown workload %q; have %s", *workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoothbench:", err)
		os.Exit(1)
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoothbench:", err)
		os.Exit(1)
	}
	res.set("peak_rss_mb", rss)
	res.set("proc.peak_rss_mb", rss)

	defs := endToEnd
	if tr != nil {
		defs = perLayer
		if err := runMicro(*seed, tr, res); err != nil {
			fmt.Fprintln(os.Stderr, "smoothbench: micro-drivers:", err)
			os.Exit(1)
		}
		tr.on.Store(false)
		path, err := tr.write(*out, *workload, envHeader())
		if err != nil {
			fmt.Fprintln(os.Stderr, "smoothbench: writing the trace:", err)
			os.Exit(1)
		}
		res.note("%d spans written to %s (%d dropped)", len(tr.recorded()), path, tr.dropped.Load())
	}
	if !res.print(os.Stdout, *workload, *seed, *seconds, defs, tr == nil) {
		os.Exit(1)
	}
}

// result collects what one run measured and checked.
type result struct {
	vals      map[string]float64
	notes     []string
	failures  []string
	attempted int64
	failed    int64
}

func newResult() *result { return &result{vals: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.vals[name] = v }
func (r *result) add(name string, v float64) { r.vals[name] += v }

// note adds a line of detail (a timing's median, tail and sample count)
// to the human-readable part of the output.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// print writes the header, the notes, one line per metric and, last, the
// JSON object the driver reads; with strict, a metric nobody measured is a
// failed check instead of a 0. It reports whether every check passed.
func (r *result) print(w *os.File, workload string, seed int64, seconds float64, defs []metricDef, strict bool) bool {
	env := envHeader()
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# smoothbench workload=%s seed=%d seconds=%g", workload, seed, seconds)
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%v", k, env[k])
	}
	fmt.Fprintln(w)
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jm, len(defs))
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok && strict {
			r.check(false, "metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = jm{Value: v, Unit: d.unit}
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED CHECK:", f)
	}
	correct := len(r.failures) == 0
	if r.attempted < 1 {
		r.attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoothbench:", err)
		return false
	}
	fmt.Fprintln(w, string(line))
	return correct
}
