// Command benchdiff compares a fresh benchmark run (benchjson format)
// against a committed baseline and exits non-zero when any benchmark
// regressed beyond its threshold. It is the regression gate behind
// scripts/verify.sh and CI: the allocation discipline of the simulation
// core (see DESIGN.md "Memory layout & amortization") is enforced by
// machine, not by review.
//
// Usage:
//
//	benchdiff -baseline BENCH_quick.json -current bench_new.json
//	benchdiff -baseline BENCH_quick.json -current bench_new.json \
//	    -allocs 0.25 -rule 'BenchmarkSimulate/*:allocs=0.0+0'
//
// A benchmark regresses on a metric when
//
//	current > baseline*(1+ratio) + slack
//
// with per-metric global ratios/slacks (-bytes, -allocs, *-slack) that
// can be overridden per benchmark with repeatable -rule flags:
//
//	-rule 'GLOB:METRIC=RATIO[+SLACK][,METRIC=RATIO[+SLACK]...]'
//
// GLOB is a path.Match pattern over the benchmark name (no -N procs
// suffix); METRIC is bytes or allocs; RATIO is the allowed fractional
// growth (negative disables the metric for matching benchmarks); SLACK is
// an absolute allowance on top, defaulting to the global slack. Later rules
// win. Bytes and allocs are deterministic at a fixed iteration count and can
// be tight. Wall time is not gated here: ns/op at -benchtime 5x on a shared
// host says little, and smoothbench (bench/) measures time end to end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

// Result mirrors cmd/benchjson's per-benchmark record.
type Result struct {
	Name        string  `json:"name"`
	Pkg         string  `json:"pkg,omitempty"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

// File mirrors cmd/benchjson's document format.
type File struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
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
	Procs    int
	Metric   string
	Baseline float64
	Current  float64
	Limit    Limit
}

func (r Regression) String() string {
	allowed := r.Baseline*(1+r.Limit.Ratio) + r.Limit.Slack
	return fmt.Sprintf("%s (procs=%d) %s: baseline %.6g, current %.6g (allowed <= %.6g)",
		r.Name, r.Procs, r.Metric, r.Baseline, r.Current, allowed)
}

type key struct {
	pkg  string
	name string
}

// Compare checks every baseline benchmark against the current run and
// returns tripped metrics, baseline benchmarks missing from the current
// run, and the number of benchmark pairs compared.
//
// A baseline row pairs with the current row of the same package, name and
// procs. A benchmark the baseline recorded at a single procs value is not a
// procs profile, only a record of the host's GOMAXPROCS, so it pairs with
// the current run's row whatever its procs: a baseline taken on a 1-CPU
// host still checks every row — above all the 0 B/op 0 allocs/op pins,
// which do not depend on procs — on a 2-CPU one.
func Compare(baseline, current *File, global Limits, rules []Rule) (regs []Regression, missing []string, compared int) {
	cur := make(map[key][]Result, len(current.Benchmarks))
	for _, b := range current.Benchmarks {
		k := key{pkgOf(current, b), b.Name}
		cur[k] = append(cur[k], b)
	}
	baseRows := make(map[key]int, len(baseline.Benchmarks))
	for _, base := range baseline.Benchmarks {
		baseRows[key{pkgOf(baseline, base), base.Name}]++
	}
	for _, base := range baseline.Benchmarks {
		k := key{pkgOf(baseline, base), base.Name}
		now, ok := pick(cur[k], base.Procs, baseRows[k] == 1)
		if !ok {
			missing = append(missing, fmt.Sprintf("%s (procs=%d)", base.Name, base.Procs))
			continue
		}
		compared++
		lim := limitsFor(base.Name, global, rules)
		if base.BytesPerOp != nil && now.BytesPerOp != nil &&
			!lim.Bytes.allows(float64(*base.BytesPerOp), float64(*now.BytesPerOp)) {
			regs = append(regs, Regression{base.Name, base.Procs, "B/op",
				float64(*base.BytesPerOp), float64(*now.BytesPerOp), lim.Bytes})
		}
		if base.AllocsPerOp != nil && now.AllocsPerOp != nil &&
			!lim.Allocs.allows(float64(*base.AllocsPerOp), float64(*now.AllocsPerOp)) {
			regs = append(regs, Regression{base.Name, base.Procs, "allocs/op",
				float64(*base.AllocsPerOp), float64(*now.AllocsPerOp), lim.Allocs})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Name != regs[j].Name {
			return regs[i].Name < regs[j].Name
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs, missing, compared
}

// pick returns the row recorded at procs, or — when anyProcs allows it and
// no row matches exactly — the first row there is.
func pick(rows []Result, procs int, anyProcs bool) (Result, bool) {
	for _, r := range rows {
		if r.Procs == procs {
			return r, true
		}
	}
	if anyProcs && len(rows) > 0 {
		return rows[0], true
	}
	return Result{}, false
}

// pkgOf resolves a benchmark's package: the per-result field when the file
// spans several packages, else the file-level one.
func pkgOf(f *File, r Result) string {
	if r.Pkg != "" {
		return r.Pkg
	}
	return f.Pkg
}

// parseRule parses 'GLOB:METRIC=RATIO[+SLACK],...'; the glob may itself
// contain ':' only if no metric assignment would parse after it, so the
// split is on the LAST ':' that precedes a valid assignment list.
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
		var def Limit
		switch m {
		case "bytes":
			def = defaults.Bytes
		case "allocs":
			def = defaults.Allocs
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
			slack, err := strconv.ParseFloat(slackStr, 64)
			if err != nil {
				return Rule{}, fmt.Errorf("rule %q: bad slack %q", s, slackStr)
			}
			lim.Slack = slack
		}
		switch m {
		case "bytes":
			r.Bytes = &lim
		case "allocs":
			r.Allocs = &lim
		}
	}
	return r, nil
}

// ruleFlags collects repeated -rule flags.
type ruleFlags struct {
	specs []string
}

func (r *ruleFlags) String() string     { return strings.Join(r.specs, "; ") }
func (r *ruleFlags) Set(s string) error { r.specs = append(r.specs, s); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
}

func run() error {
	basePath := flag.String("baseline", "BENCH_quick.json", "committed baseline (benchjson format)")
	curPath := flag.String("current", "", "fresh run to check (benchjson format); required")
	bytesRatio := flag.Float64("bytes", 0.5, "allowed fractional B/op growth (negative disables)")
	bytesSlack := flag.Float64("bytes-slack", 4096, "absolute B/op allowance on top of the ratio")
	allocsRatio := flag.Float64("allocs", 0.5, "allowed fractional allocs/op growth (negative disables)")
	allocsSlack := flag.Float64("allocs-slack", 8, "absolute allocs/op allowance on top of the ratio")
	strict := flag.Bool("strict", false, "fail when a baseline benchmark is missing from the current run")
	var rules ruleFlags
	flag.Var(&rules, "rule", "per-benchmark override 'GLOB:METRIC=RATIO[+SLACK],...' (repeatable)")
	flag.Parse()

	if *curPath == "" {
		return fmt.Errorf("-current is required")
	}
	global := Limits{
		Bytes:  Limit{*bytesRatio, *bytesSlack},
		Allocs: Limit{*allocsRatio, *allocsSlack},
	}
	parsed := make([]Rule, 0, len(rules.specs))
	for _, spec := range rules.specs {
		r, err := parseRule(spec, global)
		if err != nil {
			return err
		}
		parsed = append(parsed, r)
	}

	baseline, err := load(*basePath)
	if err != nil {
		return err
	}
	current, err := load(*curPath)
	if err != nil {
		return err
	}

	regs, missing, compared := Compare(baseline, current, global, parsed)
	for _, m := range missing {
		fmt.Fprintf(os.Stderr, "benchdiff: missing from current run: %s\n", m)
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION %s\n", r)
	}
	fmt.Printf("benchdiff: %d compared, %d regressed, %d missing (baseline %s)\n",
		compared, len(regs), len(missing), *basePath)
	if len(regs) > 0 || (*strict && len(missing) > 0) {
		os.Exit(1)
	}
	return nil
}

func load(path string) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &f, nil
}
