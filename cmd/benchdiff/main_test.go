package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cli"
)

func TestDocumentedFlags(t *testing.T) {
	parseOnly := func(args []string, stdout io.Writer) error { return run(args, strings.NewReader(""), stdout) }
	for _, err := range cli.CheckDocs("../..", "benchdiff", parseOnly) {
		t.Error(err)
	}
}

func baseRows() []Row {
	return []Row{
		{Pkg: "repro", Name: "BenchmarkServerStep", Bytes: 0, Allocs: 0},
		{Pkg: "repro", Name: "BenchmarkSimulate/TailDrop", Bytes: 0, Allocs: 0},
		{Pkg: "repro", Name: "BenchmarkFig2", Bytes: 5_000_000, Allocs: 300},
	}
}

var laxLimits = Limits{
	Bytes:  Limit{Ratio: 0.5, Slack: 4096},
	Allocs: Limit{Ratio: 0.5, Slack: 8},
}

// TestCompareClean: an identical run passes with zero regressions.
func TestCompareClean(t *testing.T) {
	regs, missing, compared := Compare(baseRows(), baseRows(), laxLimits, nil)
	if len(regs) != 0 || len(missing) != 0 || compared != 3 {
		t.Fatalf("regs=%v missing=%v compared=%d", regs, missing, compared)
	}
}

// TestCompareInjectedRegression: the gate's reason to exist. A run where the
// allocation-free paths start allocating and a figure sweep doubles its
// footprint must trip (run() fails whenever Compare returns regressions).
func TestCompareInjectedRegression(t *testing.T) {
	cur := baseRows()
	cur[0].Allocs = 50        // 0 -> 50 allocs: way past slack 8
	cur[2].Bytes = 12_000_000 // 5MB -> 12MB: past 1.5x+4096

	regs, _, _ := Compare(baseRows(), cur, laxLimits, nil)
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
	cur := baseRows()
	cur[1].Allocs = 8 // exactly the slack: allowed
	regs, _, _ := Compare(baseRows(), cur, laxLimits, nil)
	if len(regs) != 0 {
		t.Fatalf("8 allocs within slack should pass, got %v", regs)
	}
	cur[1].Allocs = 9 // one past the slack: caught
	regs, _, _ = Compare(baseRows(), cur, laxLimits, nil)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("9 allocs past slack should trip once, got %v", regs)
	}
}

// TestCompareRuleOverride: per-benchmark rules tighten (or disable) metrics
// for matching names; later rules win.
func TestCompareRuleOverride(t *testing.T) {
	cur := baseRows()
	cur[1].Allocs = 3

	strictSim, err := parseRule("BenchmarkSimulate/*:allocs=0.0+0", laxLimits)
	if err != nil {
		t.Fatal(err)
	}
	regs, _, _ := Compare(baseRows(), cur, laxLimits, []Rule{strictSim})
	if len(regs) != 1 || regs[0].Name != "BenchmarkSimulate/TailDrop" {
		t.Fatalf("strict rule should catch 3 allocs on a 0-alloc baseline, got %v", regs)
	}

	disable, err := parseRule("BenchmarkSimulate/*:allocs=-1", laxLimits)
	if err != nil {
		t.Fatal(err)
	}
	regs, _, _ = Compare(baseRows(), cur, laxLimits, []Rule{strictSim, disable})
	if len(regs) != 0 {
		t.Fatalf("later disabling rule should win, got %v", regs)
	}
}

// TestCompareMissing: a baseline row absent from the current run is
// reported by package and name (TestRunFailsOnMissingPin: and fails run).
func TestCompareMissing(t *testing.T) {
	cur := baseRows()[:2]
	regs, missing, compared := Compare(baseRows(), cur, laxLimits, nil)
	if len(regs) != 0 || compared != 2 {
		t.Fatalf("regs=%v compared=%d", regs, compared)
	}
	if len(missing) != 1 || missing[0] != "repro BenchmarkFig2" {
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

// captured is a fragment of `go test -run '^$' -bench . -benchmem
// -benchtime 5x ./...` on a 2-vCPU host (GOMAXPROCS=2, so every name
// carries -2), cut down to a few lines per package; the loadgen block is
// the same protocol with -v, whose bare name lines and skipped 100k point
// start with "Benchmark" but are not results.
const captured = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkSequentialSweep/fig2-2         	       5	  18276409 ns/op	 3264739 B/op	     213 allocs/op
BenchmarkServerStep-2                   	       5	      2736 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	2.581s
?   	repro/cmd/experiments	[no test files]
goos: linux
goarch: amd64
pkg: repro/internal/lb
cpu: Intel(R) Xeon(R) Processor
BenchmarkLBRelayStep/sessions_1-2         	       5	     11414 ns/op	1435.38 MB/s	       0 B/op	       0 allocs/op
BenchmarkFleetLoopback/sessions_1k-2      	       5	 290746072 ns/op	     23807 lb-p99-µs	      3644 sessions/s	 4959984 B/op	   86337 allocs/op
PASS
ok  	repro/internal/lb	19.094s
goos: linux
goarch: amd64
pkg: repro/internal/loadgen
cpu: Intel(R) Xeon(R) Processor
BenchmarkLoopback
BenchmarkLoopback/sessions_1k
BenchmarkLoopback/sessions_1k-2         	       5	 121250925 ns/op	     10111 p99-µs	     13183 p99.9-µs	      9596 sessions/s	 2737304 B/op	   45292 allocs/op
BenchmarkLoopback/sessions_100k
    bench_test.go:205: set LOOPBACK_100K=1 to run the multi-wave 100k point
--- SKIP: BenchmarkLoopback/sessions_100k
PASS
ok  	repro/internal/loadgen	0.856s
goos: linux
goarch: amd64
pkg: repro/internal/netstream
cpu: Intel(R) Xeon(R) Processor
BenchmarkCodecEncodeDecode/encode-2         	       5	       696.0 ns/op	     256 B/op	       1 allocs/op
PASS
ok  	repro/internal/netstream	0.007s
goos: linux
goarch: amd64
pkg: repro/internal/serve
cpu: Intel(R) Xeon(R) Processor
BenchmarkEngineStepDensity/cohort/sessions=1000-2         	       5	      9465 ns/op	 105647939 sess-steps/s	       0 B/op	       0 allocs/op
BenchmarkEngineStepDensity/cohort/catchup=10000-2         	       5	    184033 ns/op	 217352323 sess-steps/s	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/serve	0.176s
`

// TestParse: the parser over real output, and the inputs it must refuse.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in      string
		want    []Row
		wantErr string
	}{
		{name: "captured run", in: captured, want: []Row{
			{"repro", "BenchmarkSequentialSweep/fig2", 3264739, 213},
			{"repro", "BenchmarkServerStep", 0, 0},
			{"repro/internal/lb", "BenchmarkLBRelayStep/sessions_1", 0, 0},
			{"repro/internal/lb", "BenchmarkFleetLoopback/sessions_1k", 4959984, 86337},
			{"repro/internal/loadgen", "BenchmarkLoopback/sessions_1k", 2737304, 45292},
			{"repro/internal/netstream", "BenchmarkCodecEncodeDecode/encode", 256, 1},
			{"repro/internal/serve", "BenchmarkEngineStepDensity/cohort/sessions=1000", 0, 0},
			{"repro/internal/serve", "BenchmarkEngineStepDensity/cohort/catchup=10000", 0, 0},
		}},
		{name: "procs 1 carries no suffix", in: "pkg: repro\nBenchmarkFig2 \t 5\t 20434166 ns/op\t 3135318 B/op\t 204 allocs/op\n",
			want: []Row{{"repro", "BenchmarkFig2", 3135318, 204}}},
		{name: "float-valued ReportMetric", in: "pkg: bfmt\n" +
			"BenchmarkLogs-2    \t       5\t     10870 ns/op\t        12.50 p99-µs\t     243 B/op\t       2 allocs/op\n" +
			"--- BENCH: BenchmarkLogs-2\n    x_test.go:3: a log line from the benchmark\n",
			want: []Row{{"bfmt", "BenchmarkLogs", 243, 2}}},
		{name: "no result lines", in: "pkg: repro\nBenchmarkLoopback/sessions_100k\n--- SKIP: BenchmarkLoopback/sessions_100k\nPASS\n",
			wantErr: "no benchmark result lines"},
		{name: "empty", in: "", wantErr: "no benchmark result lines"},
		{name: "duplicate from a -cpu list", in: "pkg: repro\n" +
			"BenchmarkFig2 \t 5\t 20434166 ns/op\t 3135318 B/op\t 204 allocs/op\n" +
			"BenchmarkFig2-4 \t 5\t 12434166 ns/op\t 4135318 B/op\t 304 allocs/op\n",
			wantErr: "duplicate benchmark repro BenchmarkFig2"},
		{name: "same name in two packages", in: "pkg: a\nBenchmarkX-2 5 1 ns/op 0 B/op 0 allocs/op\npkg: b\nBenchmarkX-2 5 1 ns/op 0 B/op 0 allocs/op\n",
			want: []Row{{"a", "BenchmarkX", 0, 0}, {"b", "BenchmarkX", 0, 0}}},
		{name: "no -benchmem", in: "pkg: repro\nBenchmarkFig2-2 \t 5\t 20434166 ns/op\n",
			wantErr: "-benchmem"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Parse(strings.NewReader(tc.in))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got  %v\nwant %v", got, tc.want)
			}
		})
	}
}

// runText runs benchdiff with the given arguments and stdin, returning its
// stdout and error.
func runText(t *testing.T, stdin string, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(args, strings.NewReader(stdin), &out)
	return out.String(), err
}

// TestRecordThenCheck: -record writes the ledger with exactly the four keys
// per row, one row per line, and the same text then checks clean against it.
func TestRecordThenCheck(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.json")
	if _, err := runText(t, captured, "-record", "-baseline", ledger); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	var raw []map[string]any
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(buf), "\n"); len(raw) != 8 || lines != len(raw)+2 {
		t.Fatalf("%d rows on %d lines, want 8 rows one per line:\n%s", len(raw), lines, buf)
	}
	for _, r := range raw {
		if len(r) != 4 || r["pkg"] == nil || r["name"] == nil || r["bytes_per_op"] == nil || r["allocs_per_op"] == nil {
			t.Fatalf("row %v: want exactly pkg, name, bytes_per_op, allocs_per_op", r)
		}
	}
	out, err := runText(t, captured, "-baseline", ledger)
	if err != nil || !strings.Contains(out, "8 compared, 0 regressed, 0 missing") {
		t.Fatalf("check against own record: err=%v out=%q", err, out)
	}
}

// TestRunFailsOnMissingPin: a pinned benchmark that vanishes from the run —
// renamed or deleted — fails the gate instead of silently dropping its pin.
func TestRunFailsOnMissingPin(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.json")
	rows := []Row{
		{"repro", "BenchmarkServerStep", 0, 0},
		{"repro/internal/loadgen", "BenchmarkLoadgenStep/sessions_1k", 0, 0},
	}
	if err := write(ledger, rows); err != nil {
		t.Fatal(err)
	}
	pin := "BenchmarkLoadgenStep/*:allocs=0.0+0,bytes=0.0+0"
	withStep := captured + "pkg: repro/internal/loadgen\n" +
		"BenchmarkLoadgenStep/sessions_1k-2 \t 5\t 81219 ns/op\t 1447.64 MB/s\t 0 B/op\t 0 allocs/op\n"
	if out, err := runText(t, withStep, "-baseline", ledger, "-rule", pin); err != nil {
		t.Fatalf("present pin: err=%v out=%q", err, out)
	}
	out, err := runText(t, captured, "-baseline", ledger, "-rule", pin)
	if err == nil {
		t.Fatalf("missing pin passed the gate: %q", out)
	}
	if !strings.Contains(out, "MISSING repro/internal/loadgen BenchmarkLoadgenStep/sessions_1k") ||
		!strings.Contains(out, "1 compared, 0 regressed, 1 missing") {
		t.Fatalf("out = %q", out)
	}
}

// TestLoadRejectsDuplicate: a ledger holding one benchmark twice has no
// single baseline for it and is refused.
func TestLoadRejectsDuplicate(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "ledger.json")
	row := Row{"repro", "BenchmarkFig2", 3135318, 204}
	if err := write(ledger, []Row{row, {"repro", "BenchmarkFig3", 1, 1}, row}); err != nil {
		t.Fatal(err)
	}
	_, err := runText(t, captured, "-baseline", ledger)
	if err == nil || !strings.Contains(err.Error(), "duplicate benchmark repro BenchmarkFig2") {
		t.Fatalf("err = %v", err)
	}
}
