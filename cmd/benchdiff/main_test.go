package main

import (
	"strings"
	"testing"
)

func i64(v int64) *int64 { return &v }

func baseFile() *File {
	return &File{
		Pkg: "repro",
		Benchmarks: []Result{
			{Name: "BenchmarkServerStep", Procs: 1, NsPerOp: 4000, BytesPerOp: i64(0), AllocsPerOp: i64(0)},
			{Name: "BenchmarkSimulate/TailDrop", Procs: 1, NsPerOp: 2e6, BytesPerOp: i64(0), AllocsPerOp: i64(0)},
			{Name: "BenchmarkFig2", Procs: 1, NsPerOp: 5e7, BytesPerOp: i64(5_000_000), AllocsPerOp: i64(300)},
		},
	}
}

var laxLimits = Limits{
	Bytes:  Limit{Ratio: 0.5, Slack: 4096},
	Allocs: Limit{Ratio: 0.5, Slack: 8},
}

// TestCompareClean: an identical run passes with zero regressions.
func TestCompareClean(t *testing.T) {
	regs, missing, compared := Compare(baseFile(), baseFile(), laxLimits, nil)
	if len(regs) != 0 || len(missing) != 0 || compared != 3 {
		t.Fatalf("regs=%v missing=%v compared=%d", regs, missing, compared)
	}
}

// TestCompareInjectedRegression: the gate's reason to exist. A run where the
// allocation-free paths start allocating and a figure sweep doubles its
// footprint must trip — this is the scenario the acceptance criteria demand
// a non-zero exit for (run() exits 1 whenever Compare returns regressions).
func TestCompareInjectedRegression(t *testing.T) {
	cur := baseFile()
	cur.Benchmarks[0].AllocsPerOp = i64(50)        // 0 -> 50 allocs: way past slack 8
	cur.Benchmarks[2].BytesPerOp = i64(12_000_000) // 5MB -> 12MB: past 1.5x+4096
	cur.Benchmarks[2].NsPerOp = 5e8                // 10x slower: wall time is not this gate's business

	regs, _, _ := Compare(baseFile(), cur, laxLimits, nil)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %d: %v", len(regs), regs)
	}
	var metrics []string
	for _, r := range regs {
		metrics = append(metrics, r.Name+":"+r.Metric)
	}
	joined := strings.Join(metrics, " ")
	for _, want := range []string{
		"BenchmarkServerStep:allocs/op",
		"BenchmarkFig2:B/op",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing expected regression %s in %s", want, joined)
		}
	}
}

// TestCompareSlackOnZeroBaseline: slack is what keeps a 0-alloc baseline
// from tripping on measurement fuzz, while still catching real growth.
func TestCompareSlackOnZeroBaseline(t *testing.T) {
	cur := baseFile()
	cur.Benchmarks[1].AllocsPerOp = i64(8) // exactly the slack: allowed
	regs, _, _ := Compare(baseFile(), cur, laxLimits, nil)
	if len(regs) != 0 {
		t.Fatalf("8 allocs within slack should pass, got %v", regs)
	}
	cur.Benchmarks[1].AllocsPerOp = i64(9) // one past the slack: caught
	regs, _, _ = Compare(baseFile(), cur, laxLimits, nil)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("9 allocs past slack should trip once, got %v", regs)
	}
}

// TestCompareRuleOverride: per-benchmark rules tighten (or disable) metrics
// for matching names; later rules win.
func TestCompareRuleOverride(t *testing.T) {
	cur := baseFile()
	cur.Benchmarks[1].AllocsPerOp = i64(3)

	strictSim, err := parseRule("BenchmarkSimulate/*:allocs=0.0+0", laxLimits)
	if err != nil {
		t.Fatal(err)
	}
	regs, _, _ := Compare(baseFile(), cur, laxLimits, []Rule{strictSim})
	if len(regs) != 1 || regs[0].Name != "BenchmarkSimulate/TailDrop" {
		t.Fatalf("strict rule should catch 3 allocs on a 0-alloc baseline, got %v", regs)
	}

	disable, err := parseRule("BenchmarkSimulate/*:allocs=-1", laxLimits)
	if err != nil {
		t.Fatal(err)
	}
	regs, _, _ = Compare(baseFile(), cur, laxLimits, []Rule{strictSim, disable})
	if len(regs) != 0 {
		t.Fatalf("later disabling rule should win, got %v", regs)
	}
}

// TestCompareMissing: a baseline benchmark absent from the current run is
// reported (strictness is the caller's choice).
func TestCompareMissing(t *testing.T) {
	cur := baseFile()
	cur.Benchmarks = cur.Benchmarks[:2]
	regs, missing, compared := Compare(baseFile(), cur, laxLimits, nil)
	if len(regs) != 0 || compared != 2 {
		t.Fatalf("regs=%v compared=%d", regs, compared)
	}
	if len(missing) != 1 || !strings.Contains(missing[0], "BenchmarkFig2") {
		t.Fatalf("missing=%v", missing)
	}
}

// TestParseRuleErrors: malformed specs are rejected with a diagnostic.
func TestParseRuleErrors(t *testing.T) {
	for _, spec := range []string{
		"no-colon",
		"glob:",
		"glob:latency=0.5",
		"glob:ns=3.0+1000000000", // the wall-time metric is gone: naming it is an error
		"glob:allocs=0.3,ns=0.5",
		"glob:bytes=abc",
		"glob:bytes=0.5+xyz",
		"[:bytes=0.5",
	} {
		if _, err := parseRule(spec, laxLimits); err == nil {
			t.Errorf("parseRule(%q) should fail", spec)
		}
	}
}

// TestParseRuleSlackDefault: a rule without an explicit slack inherits the
// global slack for that metric.
func TestParseRuleSlackDefault(t *testing.T) {
	r, err := parseRule("Benchmark*:allocs=0.25", laxLimits)
	if err != nil {
		t.Fatal(err)
	}
	if r.Allocs == nil || r.Allocs.Ratio != 0.25 || r.Allocs.Slack != laxLimits.Allocs.Slack {
		t.Fatalf("rule = %+v", r.Allocs)
	}
}

// TestCompareAcrossProcs: a baseline recorded on a 1-CPU host must still
// gate a 2-CPU run. Benchmarks with one baseline procs value pair by name —
// so an allocation injected into a pinned path trips instead of the row
// being reported missing — while a benchmark recorded as a procs profile
// (two baseline rows) keeps pairing on exact procs.
func TestCompareAcrossProcs(t *testing.T) {
	base := baseFile()
	base.Benchmarks = append(base.Benchmarks,
		Result{Name: "BenchmarkSweepWorkers/fig2/par", Procs: 1, NsPerOp: 6e7, AllocsPerOp: i64(272)},
		Result{Name: "BenchmarkSweepWorkers/fig2/par", Procs: 4, NsPerOp: 3e7, AllocsPerOp: i64(300)},
	)
	cur := baseFile()
	for i := range cur.Benchmarks {
		cur.Benchmarks[i].Procs = 2
	}
	cur.Benchmarks = append(cur.Benchmarks,
		Result{Name: "BenchmarkSweepWorkers/fig2/par", Procs: 2, NsPerOp: 4e7, AllocsPerOp: i64(9000)}, // no baseline at procs=2: never compared
		Result{Name: "BenchmarkSweepWorkers/fig2/par", Procs: 1, NsPerOp: 6e7, AllocsPerOp: i64(272)},
	)
	pin, err := parseRule("BenchmarkServerStep:allocs=0.0+0,bytes=0.0+0", laxLimits)
	if err != nil {
		t.Fatal(err)
	}
	regs, missing, compared := Compare(base, cur, laxLimits, []Rule{pin})
	if len(regs) != 0 || compared != 4 {
		t.Fatalf("clean 2-proc run: regs=%v compared=%d, want none and 4", regs, compared)
	}
	if len(missing) != 1 || !strings.Contains(missing[0], "BenchmarkSweepWorkers/fig2/par (procs=4)") {
		t.Fatalf("missing=%v, want only the procs=4 sweep row", missing)
	}

	cur.Benchmarks[0].AllocsPerOp = i64(1) // the 0-alloc pin breaks on the procs=2 row
	regs, _, _ = Compare(base, cur, laxLimits, []Rule{pin})
	if len(regs) != 1 || regs[0].Name != "BenchmarkServerStep" || regs[0].Metric != "allocs/op" {
		t.Fatalf("one allocation on a pinned path at procs=2 must trip, got %v", regs)
	}
}
