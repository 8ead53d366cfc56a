package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiment"
)

// simFrames is the paper-scale clip length every sim_sweep runner uses.
const simFrames = 2000

// namedRunners are the experiments that get a per-layer metric of their
// own; the other fifteen are summed into experiment.rest_ms.
var namedRunners = []string{"fig2", "fig3", "fig4", "fig5", "fig6", "robust", "brd", "onlinelb"}

// sweep runs every registered experiment once, in Names order, and returns
// one digest per table. Each runner call is a span named prefix+ID.
func sweep(cfg experiment.Config, tr *tracer, prefix string, parent int32) ([][sha256.Size]byte, error) {
	runners := experiment.All()
	names := experiment.Names()
	digests := make([][sha256.Size]byte, len(names))
	for i, name := range names {
		id := tr.begin(prefix+name, parent)
		tab, err := runners[name](cfg)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", name, err)
		}
		digests[i] = sha256.Sum256([]byte(tab.CSV()))
	}
	return digests, nil
}

// runSim measures the simulation core: no socket exists, and every number
// is the time or CPU it takes to regenerate the paper's tables.
func runSim(full experiment.Config, seconds float64, tr *tracer) (*result, error) {
	res := newResult()
	names := experiment.Names()
	tables := float64(len(names))

	// Set-up is a quick-scale pass over every runner, which fills the
	// simulation core's arena and policy pools before anything is timed.
	const setups = 3
	var setupS []float64
	for i := 0; i < setups; i++ {
		root := tr.begin("setup", -1)
		t0 := time.Now()
		_, err := sweep(experiment.Config{Quick: true, Seed: full.Seed}, tr, "warmup.", root)
		setupS = append(setupS, time.Since(t0).Seconds())
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	res.set("setup_s", median(setupS))
	res.note("setup_s %s", describeSamples(setupS, "s"))

	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	var first [][sha256.Size]byte
	var wallS [2][]float64 // [untraced, traced]
	var cpuS, longest float64
	verified, attempted := 0, 0
	compare := func(what string, got [][sha256.Size]byte) {
		for i := range got {
			attempted++
			if got[i] == first[i] {
				verified++
			} else {
				res.check(false, "%s: table %s differs from the first repetition", what, names[i])
			}
		}
	}
	minReps := 1
	if tr != nil {
		minReps = 2
	}
	u0 := readUsage()
	for i := 0; ; i++ {
		if elapsed := time.Since(u0.wall).Seconds(); i >= minReps && elapsed+longest > 1.05*seconds {
			break
		}
		traced := tr != nil && i%2 == 0
		k := 0
		if traced {
			k = 1
		}
		tr.scope(i, traced)
		root := tr.begin("sweep", -1)
		a := readUsage()
		got, err := sweep(full, tr, "experiment.", root)
		b := readUsage()
		tr.end(root)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = got
		}
		compare(fmt.Sprintf("repetition %d", i), got)
		wall := b.wall.Sub(a.wall).Seconds()
		wallS[k] = append(wallS[k], wall)
		cpuS += (b.cpu() - a.cpu()).Seconds()
		if wall > longest {
			longest = wall
		}
	}
	u1 := readUsage()
	tr.scope(-1, true)
	reps := len(wallS[0]) + len(wallS[1])
	all := append(append([]float64(nil), wallS[0]...), wallS[1]...)

	// One more sweep on a single worker: the tables must not depend on the
	// worker count, and its time answers whether the parallel sweep pays.
	seq := full
	seq.Workers = 1
	root := tr.begin("seq_sweep", -1)
	t0 := time.Now()
	got, err := sweep(seq, tr, "seq.", root)
	seqS := time.Since(t0).Seconds()
	tr.end(root)
	if err != nil {
		return nil, err
	}
	compare("Workers=1 sweep", got)

	res.set("cpu_us_per_unit", cpuS*1e6/(tables*float64(reps)))
	res.set("units_per_s", tables/median(all))
	res.set("on_time_frac", float64(verified)/float64(attempted))
	res.attempted = int64(attempted)
	res.failed = int64(attempted - verified)
	res.note("%d sweeps of %d experiment tables at %d frames, unit = regenerated table; sweep wall %s",
		reps, len(names), full.Frames, describeSamples(all, "s"))
	res.note("Workers=1 sweep %.4gs, parallel speed-up %.3g on %d procs", seqS, seqS/median(all), runtime.GOMAXPROCS(0))
	if tr == nil {
		return res, nil
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	spans := tr.recorded()
	rest := 0.0
	named := map[string]bool{}
	for _, n := range namedRunners {
		named[n] = true
		res.set("experiment."+n+"_ms", median(durations(spans, "experiment."+n))/1e6)
	}
	for _, n := range names {
		if !named[n] {
			rest += median(durations(spans, "experiment."+n)) / 1e6
		}
	}
	res.set("experiment.rest_ms", rest)
	res.set("experiment.sweep_s", median(all))
	res.set("experiment.seq_sweep_s", seqS)
	res.set("experiment.par_speedup", seqS/median(all))
	res.setProc(u0, u1, &ms0, &ms1, 0)
	if off, on := median(wallS[0]), median(wallS[1]); off > 0 {
		res.set("proc.trace_overhead_frac", (on-off)/off)
	}
	return res, nil
}
