// Command selfcheck is the A/A proof for smoothbench: it runs every
// workload of BENCHMARK.json n times, each time with another seed, twice
// over on the same code, prints both sets side by side, and fails if any
// end-to-end metric spreads by more than its own bound within a set or
// worsens by more than its bound from the first set to the second. It is
// also the tool for re-deriving a bound: read the spread column.
//
//	go run -C bench ./selfcheck            # the full pass, 2 x 10 runs per workload
//	go run -C bench ./selfcheck -n 4 -workloads sim_sweep,direct_churn
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// line is the last line of one smoothbench run.
type line struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	n := flag.Int("n", 10, "runs per workload in each of the two sets")
	only := flag.String("workloads", "", "comma-separated subset of the workloads (default all)")
	seconds := flag.Int("seconds", 0, "override run_seconds (bounds are sized for the default)")
	flag.Parse()
	if err := run(*n, *only, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck:", err)
		os.Exit(1)
	}
}

func run(n int, only string, seconds int) error {
	if n < 2 {
		return fmt.Errorf("-n %d: quartiles need at least 2 runs", n)
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return fmt.Errorf("%w (run it as `go run -C bench ./selfcheck`)", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if seconds > 0 {
		sp.RunSeconds = seconds
	}
	want := map[string]bool{}
	for _, w := range strings.Split(only, ",") {
		if w != "" {
			want[w] = true
		}
	}

	bin, err := filepath.Abs(filepath.Join("out", "smoothbench"))
	if err != nil {
		return err
	}
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building smoothbench: %w", err)
	}

	ok := true
	for _, w := range sp.Workloads {
		if len(want) > 0 && !want[w.Name] {
			continue
		}
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < n; i++ {
				seed := set*n + i + 1
				l, err := once(bin, w.Name, seed, sp.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				if !l.Correct || l.Failed != 0 {
					fmt.Printf("%s seed %d: correct=%v failed=%d of %d\n", w.Name, seed, l.Correct, l.Failed, l.Attempted)
					ok = false
				}
				for _, m := range sp.EndToEnd {
					v, has := l.Metrics[m.Name]
					if !has {
						return fmt.Errorf("%s seed %d: metric %s missing from the output", w.Name, seed, m.Name)
					}
					sets[set][m.Name] = append(sets[set][m.Name], v.Value)
				}
			}
		}
		fmt.Printf("\n%s, 2 x %d runs of %d s\n", w.Name, n, sp.RunSeconds)
		fmt.Printf("  %-18s %-6s %14s %8s %14s %8s %8s %7s  %s\n", "metric", "unit", "median A", "spread", "median B", "spread", "B vs A", "bound", "verdict")
		for _, m := range sp.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			sa, sb := spread(a), spread(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "FAIL: B worse than A"
			}
			// The set-up time is exempt from the spread rule, not from the A/B one.
			if m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound) {
				verdict = "FAIL: spread over bound"
			} else if verdict == "ok" && m.Name != "setup_s" && (sa > m.Bound/3 || sb > m.Bound/3) {
				verdict = "ok (spread over a third of the bound)"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				ok = false
			}
			fmt.Printf("  %-18s %-6s %14.6g %7.2f%% %14.6g %7.2f%% %+7.2f%% %6.1f%%  %s\n",
				m.Name, m.Unit, ma, 100*sa, mb, 100*sb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("the two sets do not agree within the benchmark's own bounds")
	}
	fmt.Println("\nselfcheck: every end-to-end metric of every workload repeats within its bound")
	return nil
}

// once runs one workload once and parses the last line of its output.
func once(bin, workload string, seed, seconds int) (*line, error) {
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	last := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var l line
	if err := json.Unmarshal([]byte(last), &l); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("last output line is not the result object: %w", err)
	}
	return &l, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the distance between the first and the third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method).
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	d := (q(3) - q(1)) / med
	if d < 0 {
		d = -d
	}
	return d
}
