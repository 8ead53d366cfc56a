// Command benchdiff is the allocation gate behind scripts/verify.sh and CI:
// the allocation discipline of the simulation core and the serving, client
// and relay paths (DESIGN.md "Memory layout & amortization") is enforced by
// machine, not by review. It reads `go test -bench -benchmem` text on stdin
// and either records it as the ledger or checks it against the ledger.
//
// Usage:
//
//	benchdiff [-baseline BENCH_quick.json] -record < bin/bench.txt   # record
//	benchdiff [-baseline BENCH_quick.json] [-rule SPEC]... < bin/bench.txt  # check
//
// scripts/bench_baseline.sh runs the one `go test -bench` invocation and
// pipes it into benchdiff: -record with no arguments, else its arguments.
//
// The ledger (-baseline, default BENCH_quick.json) holds one row per
// (package, benchmark): the name without its -N procs suffix, B/op and
// allocs/op. A duplicate (package, name) in either input is an error, and
// so is a ledger row absent from the run. A metric regresses when
//
//	current > baseline*(1+ratio) + slack
//
// with globalLimits (2× plus 16 KiB or 64 allocs) overridden per benchmark
// by repeatable -rule 'GLOB:METRIC=RATIO[+SLACK][,...]' flags: GLOB is a
// path.Match pattern over the name, METRIC is bytes or allocs, a negative
// RATIO disables the metric, SLACK defaults to the global one, and later
// rules win. Wall time is not gated: ns/op at -benchtime 5x on a shared
// host says little, and smoothbench (bench/) measures time end to end.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"strconv"
	"strings"
)

// Row is one benchmark's entry in the ledger, and one result line of a run.
type Row struct {
	Pkg    string `json:"pkg"`
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes_per_op"`
	Allocs int64  `json:"allocs_per_op"`
}

type key struct {
	pkg  string
	name string
}

// index maps rows by (pkg, name), refusing a duplicate: two rows for one
// benchmark (a -cpu list, two runs concatenated) have no single baseline.
func index(rows []Row) (map[key]Row, error) {
	m := make(map[key]Row, len(rows))
	for _, r := range rows {
		k := key{r.Pkg, r.Name}
		if _, dup := m[k]; dup {
			return nil, fmt.Errorf("duplicate benchmark %s %s", r.Pkg, r.Name)
		}
		m[k] = r
	}
	return m, nil
}

// Parse reads `go test -bench -benchmem` output: a "pkg:" header sets the
// package of the result lines after it, and a result line is
//
//	BenchmarkName-8  5  9561906 ns/op  [value unit ...]  4096 B/op  12 allocs/op
//
// with the -N procs suffix stripped from the name, so a run at any
// GOMAXPROCS pairs with the ledger. Every other line, including one that
// merely starts with "Benchmark", is ignored. Input without result lines
// and a duplicate (pkg, name) are errors.
func Parse(r io.Reader) ([]Row, error) {
	var rows []Row
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = p
			continue
		}
		f := strings.Fields(line)
		if !strings.HasPrefix(line, "Benchmark") || len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		row := Row{Pkg: pkg, Name: f[0]}
		if i := strings.LastIndex(row.Name, "-"); i > 0 {
			if _, err := strconv.Atoi(row.Name[i+1:]); err == nil {
				row.Name = row.Name[:i]
			}
		}
		var haveBytes, haveAllocs bool
		for i := 4; i+1 < len(f); i += 2 {
			switch f[i+1] {
			case "B/op":
				v, err := strconv.ParseInt(f[i], 10, 64)
				row.Bytes, haveBytes = v, err == nil
			case "allocs/op":
				v, err := strconv.ParseInt(f[i], 10, 64)
				row.Allocs, haveAllocs = v, err == nil
			}
		}
		if !haveBytes || !haveAllocs {
			return nil, fmt.Errorf("%s: no B/op and allocs/op (run go test with -benchmem)", f[0])
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading benchmark output: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no benchmark result lines in input")
	}
	if _, err := index(rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// Limit is one metric's allowance: current may grow to
// baseline*(1+Ratio)+Slack before the gate trips. A negative Ratio disables
// the check.
type Limit struct {
	Ratio float64
	Slack float64
}

func (l Limit) allows(base, cur float64) bool {
	if l.Ratio < 0 {
		return true
	}
	return cur <= base*(1+l.Ratio)+l.Slack
}

// Limits bundles the two per-metric allowances.
type Limits struct {
	Bytes  Limit
	Allocs Limit
}

// globalLimits apply to every benchmark no -rule matches. They are
// generous because sync.Pool hit rates vary with GC timing, so the pooled
// arenas of the sweep benchmarks jitter; the allocation-free paths get
// tight rules instead.
var globalLimits = Limits{
	Bytes:  Limit{Ratio: 1.0, Slack: 16384},
	Allocs: Limit{Ratio: 1.0, Slack: 64},
}

// Rule is a per-benchmark override selected by a path.Match glob on the
// benchmark name.
type Rule struct {
	Glob   string
	Bytes  *Limit
	Allocs *Limit
}

// limitsFor resolves the effective limits for one benchmark: globals,
// overlaid by every matching rule in order (later rules win).
func limitsFor(name string, global Limits, rules []Rule) Limits {
	eff := global
	for _, r := range rules {
		ok, err := path.Match(r.Glob, name)
		if err != nil || !ok {
			continue
		}
		if r.Bytes != nil {
			eff.Bytes = *r.Bytes
		}
		if r.Allocs != nil {
			eff.Allocs = *r.Allocs
		}
	}
	return eff
}

// Regression describes one tripped metric.
type Regression struct {
	Name     string
	Metric   string
	Baseline float64
	Current  float64
	Limit    Limit
}

func (r Regression) String() string {
	allowed := r.Baseline*(1+r.Limit.Ratio) + r.Limit.Slack
	return fmt.Sprintf("%s %s: baseline %.6g, current %.6g (allowed <= %.6g)",
		r.Name, r.Metric, r.Baseline, r.Current, allowed)
}

// Compare checks every baseline row against the current row of the same
// (pkg, name) and returns tripped metrics in baseline order, baseline rows
// missing from the current run, and the number of rows compared. Both
// inputs must be free of duplicates (Parse and load check).
func Compare(baseline, current []Row, global Limits, rules []Rule) (regs []Regression, missing []string, compared int) {
	cur, _ := index(current)
	for _, base := range baseline {
		now, ok := cur[key{base.Pkg, base.Name}]
		if !ok {
			missing = append(missing, base.Pkg+" "+base.Name)
			continue
		}
		compared++
		lim := limitsFor(base.Name, global, rules)
		if !lim.Bytes.allows(float64(base.Bytes), float64(now.Bytes)) {
			regs = append(regs, Regression{base.Name, "B/op", float64(base.Bytes), float64(now.Bytes), lim.Bytes})
		}
		if !lim.Allocs.allows(float64(base.Allocs), float64(now.Allocs)) {
			regs = append(regs, Regression{base.Name, "allocs/op", float64(base.Allocs), float64(now.Allocs), lim.Allocs})
		}
	}
	return regs, missing, compared
}

// parseRule parses 'GLOB:METRIC=RATIO[+SLACK],...'; the split is on the
// last ':', so the glob may itself contain one.
func parseRule(s string, defaults Limits) (Rule, error) {
	i := strings.LastIndex(s, ":")
	if i <= 0 || i == len(s)-1 {
		return Rule{}, fmt.Errorf("rule %q: want 'GLOB:METRIC=RATIO[+SLACK],...'", s)
	}
	r := Rule{Glob: s[:i]}
	if _, err := path.Match(r.Glob, "probe"); err != nil {
		return Rule{}, fmt.Errorf("rule %q: bad glob: %v", s, err)
	}
	for _, part := range strings.Split(s[i+1:], ",") {
		m, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Rule{}, fmt.Errorf("rule %q: bad assignment %q", s, part)
		}
		var dst **Limit
		var def Limit
		switch m {
		case "bytes":
			dst, def = &r.Bytes, defaults.Bytes
		case "allocs":
			dst, def = &r.Allocs, defaults.Allocs
		default:
			return Rule{}, fmt.Errorf("rule %q: unknown metric %q (want bytes or allocs)", s, m)
		}
		lim := Limit{Slack: def.Slack}
		ratioStr, slackStr, hasSlack := strings.Cut(val, "+")
		ratio, err := strconv.ParseFloat(ratioStr, 64)
		if err != nil {
			return Rule{}, fmt.Errorf("rule %q: bad ratio %q", s, ratioStr)
		}
		lim.Ratio = ratio
		if hasSlack {
			if lim.Slack, err = strconv.ParseFloat(slackStr, 64); err != nil {
				return Rule{}, fmt.Errorf("rule %q: bad slack %q", s, slackStr)
			}
		}
		*dst = &lim
	}
	return r, nil
}

// ruleFlags collects repeated -rule flags.
type ruleFlags []string

func (r *ruleFlags) String() string     { return strings.Join(*r, "; ") }
func (r *ruleFlags) Set(s string) error { *r = append(*r, s); return nil }

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stdout)
	ledger := fs.String("baseline", "BENCH_quick.json", "the committed ledger")
	record := fs.Bool("record", false, "write the run on stdin to -baseline instead of checking it")
	var specs ruleFlags
	fs.Var(&specs, "rule", "per-benchmark override 'GLOB:METRIC=RATIO[+SLACK],...' (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rules := make([]Rule, len(specs))
	for i, spec := range specs {
		var err error
		if rules[i], err = parseRule(spec, globalLimits); err != nil {
			return err
		}
	}
	current, err := Parse(stdin)
	if err != nil {
		return err
	}
	if *record {
		return write(*ledger, current)
	}
	baseline, err := load(*ledger)
	if err != nil {
		return err
	}

	regs, missing, compared := Compare(baseline, current, globalLimits, rules)
	for _, m := range missing {
		fmt.Fprintf(stdout, "MISSING %s\n", m)
	}
	for _, r := range regs {
		fmt.Fprintf(stdout, "REGRESSION %s\n", r)
	}
	fmt.Fprintf(stdout, "benchdiff: %d compared, %d regressed, %d missing (baseline %s)\n",
		compared, len(regs), len(missing), *ledger)
	if len(regs) > 0 || len(missing) > 0 {
		return fmt.Errorf("%d regressed, %d missing", len(regs), len(missing))
	}
	return nil
}

// load reads a ledger: a JSON array of rows, unique by (pkg, name).
func load(file string) ([]Row, error) {
	buf, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var rows []Row
	if err := json.Unmarshal(buf, &rows); err != nil {
		return nil, fmt.Errorf("%s: %v", file, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", file)
	}
	if _, err := index(rows); err != nil {
		return nil, fmt.Errorf("%s: %v", file, err)
	}
	return rows, nil
}

// write stores rows as a JSON array with one row per line, so a refreshed
// ledger diffs line by line.
func write(file string, rows []Row) error {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b.WriteString("  ")
		b.Write(line)
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return os.WriteFile(file, b.Bytes(), 0o644)
}
