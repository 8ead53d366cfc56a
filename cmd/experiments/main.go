// Command experiments regenerates the paper's figures and the validation
// tables for its theorems (see DESIGN.md §5 for the index).
//
// Usage:
//
//	experiments                      run everything, print aligned tables
//	experiments -list                list experiment IDs
//	experiments -run fig3,onlinelb   run a subset
//	experiments -plot                add ASCII plots
//	experiments -csv DIR             also write one CSV per experiment
//	experiments -quick               reduced settings (benchmark scale)
//	experiments -workers N           sweep points per experiment run on N
//	                                 goroutines (0 = GOMAXPROCS)
//	experiments -parallel N          N experiments run concurrently
//	experiments -timing              wall-time summary after the run
//	experiments -compare             re-run sequentially, report speedups
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiment"
)

func main() { cli.Main("experiments", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stdout)
	list := fs.Bool("list", false, "list experiment IDs and exit")
	only := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	plot := fs.Bool("plot", false, "render ASCII plots")
	csvDir := fs.String("csv", "", "directory to write per-experiment CSV files")
	quick := fs.Bool("quick", false, "reduced settings")
	parallel := fs.Int("parallel", 1, "experiments to run concurrently (output order preserved)")
	workers := fs.Int("workers", 0, "sweep-point goroutines per experiment (0 = GOMAXPROCS)")
	timing := fs.Bool("timing", false, "print a wall-time summary after the run")
	compare := fs.Bool("compare", false, "after the run, re-run each experiment with 1 worker and report the speedup (implies -timing)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	registry := experiment.All()
	if *list {
		for _, name := range experiment.Names() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}

	names := experiment.Names()
	if *only != "" {
		names = strings.Split(*only, ",")
		for _, n := range names {
			if _, ok := registry[n]; !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", n)
			}
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	cfg := experiment.Config{Quick: *quick, Workers: *workers}

	// Run experiments with bounded concurrency; results print in the
	// requested order regardless of completion order.
	type outcome struct {
		tab  *experiment.Table
		err  error
		wall time.Duration
	}
	results := make([]chan outcome, len(names))
	sem := make(chan struct{}, max(*parallel, 1))
	for i, name := range names {
		results[i] = make(chan outcome, 1)
		go func(name string, ch chan outcome) {
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			tab, err := registry[name](cfg)
			ch <- outcome{tab, err, time.Since(start)}
		}(name, results[i])
	}
	walls := make([]time.Duration, len(names))
	for i, name := range names {
		res := <-results[i]
		if res.err != nil {
			return fmt.Errorf("%s: %w", name, res.err)
		}
		walls[i] = res.wall
		fmt.Fprintln(stdout, res.tab.Text())
		if *plot {
			fmt.Fprintln(stdout, res.tab.Plot(72, 18))
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(res.tab.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "# wrote %s\n\n", path)
		}
	}

	if *timing || *compare {
		printTiming(stdout, names, walls, registry, cfg, *compare)
	}
	return nil
}

// printTiming renders the end-of-run timing summary: wall time per
// experiment (slowest first) and, with compare set, a sequential re-run
// (Workers=1) of each experiment with the resulting speedup.
func printTiming(w io.Writer, names []string, walls []time.Duration, registry map[string]experiment.Runner, cfg experiment.Config, compare bool) {
	type row struct {
		name      string
		wall, seq time.Duration
	}
	rows := make([]row, len(names))
	var seqTotal time.Duration
	for i, name := range names {
		rows[i] = row{name: name, wall: walls[i]}
		if compare {
			seqCfg := cfg
			seqCfg.Workers = 1
			start := time.Now()
			if _, err := registry[name](seqCfg); err == nil {
				rows[i].seq = time.Since(start)
				seqTotal += rows[i].seq
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].wall > rows[j].wall })

	var total time.Duration
	for _, r := range rows {
		total += r.wall
	}
	fmt.Fprintf(w, "# timing summary (workers=%d, GOMAXPROCS=%d)\n", cfg.Workers, runtime.GOMAXPROCS(0))
	if compare {
		fmt.Fprintf(w, "# %-14s %12s %12s %9s\n", "experiment", "wall", "sequential", "speedup")
	} else {
		fmt.Fprintf(w, "# %-14s %12s\n", "experiment", "wall")
	}
	for _, r := range rows {
		if compare && r.seq > 0 {
			fmt.Fprintf(w, "# %-14s %12s %12s %8.2fx\n", r.name, r.wall.Round(time.Millisecond),
				r.seq.Round(time.Millisecond), float64(r.seq)/float64(r.wall))
		} else {
			fmt.Fprintf(w, "# %-14s %12s\n", r.name, r.wall.Round(time.Millisecond))
		}
	}
	if compare && seqTotal > 0 {
		fmt.Fprintf(w, "# %-14s %12s %12s %8.2fx\n", "TOTAL", total.Round(time.Millisecond),
			seqTotal.Round(time.Millisecond), float64(seqTotal)/float64(total))
	} else {
		fmt.Fprintf(w, "# %-14s %12s\n", "TOTAL", total.Round(time.Millisecond))
	}
}
