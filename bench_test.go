package repro

// Benchmarks that regenerate every figure and table of the paper (reduced
// "quick" scale so iterations stay in the hundreds of milliseconds; run
// cmd/experiments for the full-scale tables), plus micro-benchmarks of the
// core data paths.

import (
	"testing"

	"repro/internal/competitive"
	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/experiment"
	"repro/internal/lossless"
	"repro/internal/offline"
	"repro/internal/stream"
	"repro/internal/trace"
)

// benchExperimentWorkers runs one registered experiment per iteration at a
// fixed sweep worker count (0 = the Config default, GOMAXPROCS).
func benchExperimentWorkers(b *testing.B, name string, workers int) {
	b.Helper()
	runner := experiment.All()[name]
	if runner == nil {
		b.Fatalf("experiment %q not registered", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := runner(experiment.Config{Quick: true, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// benchExperiment runs one registered experiment per iteration with the
// default worker count.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	benchExperimentWorkers(b, name, 0)
}

// BenchmarkSequentialSweep runs representative experiments with
// Workers=1: one goroutine, so the arena and pool reuse of a sweep is
// measured without the scheduling-dependent pool misses of the parallel
// engine. The parallel runs are the Benchmark{Fig2,Table*} functions below
// (Workers=0, GOMAXPROCS); the parallel speed-up is smoothbench's
// experiment.par_speedup.
func BenchmarkSequentialSweep(b *testing.B) {
	for _, name := range []string{"fig2", "brd", "muxgain", "robust"} {
		b.Run(name, func(b *testing.B) { benchExperimentWorkers(b, name, 1) })
	}
}

// One benchmark per paper artefact (see DESIGN.md §5).

func BenchmarkFig2(b *testing.B)             { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)             { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)             { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)             { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)             { benchExperiment(b, "fig6") }
func BenchmarkTableBRD(b *testing.B)         { benchExperiment(b, "brd") }
func BenchmarkTableBufferRatio(b *testing.B) { benchExperiment(b, "bufratio") }
func BenchmarkTableVarSlices(b *testing.B)   { benchExperiment(b, "varslices") }
func BenchmarkTableGreedyUB(b *testing.B)    { benchExperiment(b, "greedyub") }
func BenchmarkTableGreedyLB(b *testing.B)    { benchExperiment(b, "greedylb") }
func BenchmarkTableOnlineLB(b *testing.B)    { benchExperiment(b, "onlinelb") }
func BenchmarkTableLossless(b *testing.B)    { benchExperiment(b, "lossless") }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the core data paths.
// ---------------------------------------------------------------------------

func benchClip(b *testing.B, frames int) *trace.Clip {
	b.Helper()
	cfg := trace.DefaultGenConfig()
	cfg.Frames = frames
	clip, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return clip
}

func benchByteStream(b *testing.B, frames int) *stream.Stream {
	b.Helper()
	st, err := trace.ByteSliceStream(benchClip(b, frames), trace.PaperWeights())
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func benchFrameStream(b *testing.B, frames int) *stream.Stream {
	b.Helper()
	st, err := trace.WholeFrameStream(benchClip(b, frames), trace.PaperWeights())
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkServerStep measures one server step in steady state; with the
// reusable result buffers in core.Server and the allocation-free drop
// policies this sits at (amortized) zero allocs/op once the backing arrays
// have grown to the working size.
func BenchmarkServerStep(b *testing.B) {
	st := benchByteStream(b, 1000)
	horizon := st.Horizon()
	pol := drop.Greedy()
	sv := core.NewServer(480, 35, pol, core.ServerOptions{})
	reset := func() {
		// Recycle the policy and reset the server in place, retaining all
		// backing arrays; steady-state steps then allocate nothing.
		drop.Recycle(pol)
		pol = drop.Greedy()
		sv.Reset(480, 35, pol, core.ServerOptions{})
	}
	// Warm up one full drain so every backing array reaches its working
	// size before measurement starts.
	for t := 0; t <= horizon || !sv.Empty(); t++ {
		sv.Step(t, st.RunsAt(t))
	}
	reset()
	b.ReportAllocs()
	t := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t > horizon && sv.Empty() {
			// Stream exhausted and drained: restart from step 0 so slice
			// IDs never collide, without timing the reset.
			b.StopTimer()
			reset()
			t = 0
			b.StartTimer()
		}
		sv.Step(t, st.RunsAt(t))
		t++
	}
}

// BenchmarkSimulate measures the full-system simulator on a byte-sliced
// 1000-frame clip (~38k unit slices) per policy, through a reused
// core.Runner arena — the path every sweep takes. After the first (untimed)
// run grows the arena to the stream's working size, iterations are
// allocation-free. GreedyFrames runs greedy on the same clip with one slice
// per frame, weighed by decode dependency (trace.DependencyWeights, as in
// the smartweights experiment): 376 distinct byte values over its 1000
// frames, where the paper's weights give three, so the value stacks come
// and go with the frames.
func BenchmarkSimulate(b *testing.B) {
	clip := benchClip(b, 1000)
	frames, err := trace.WeightedStream(clip, trace.DependencyWeights(clip))
	if err != nil {
		b.Fatal(err)
	}
	bytes := benchByteStream(b, 1000)
	cfg := func(f drop.Factory) core.Config {
		return core.Config{ServerBuffer: 480, Rate: 35, Policy: f}
	}
	for _, tc := range []struct {
		name string
		st   *stream.Stream
		f    drop.Factory
	}{
		{"TailDrop", bytes, drop.TailDrop},
		{"HeadDrop", bytes, drop.HeadDrop},
		{"Greedy", bytes, drop.Greedy},
		{"GreedyFrames", frames, drop.Greedy},
	} {
		b.Run(tc.name, func(b *testing.B) {
			r := core.NewRunner()
			if _, err := r.Run(tc.st, cfg(tc.f)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(tc.st, cfg(tc.f)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForkedGame plays one Theorem 4.8 game at B = 24 (73 cut steps,
// 146 scenarios): greedy in one trial, and the onlinelb table's random
// mix in 20. Each trial runs once along the base stream and forks both
// endings at every cut step; after the first (untimed) game has grown the
// arenas, the policies and the draw tapes on their free lists, a game is
// allocation-free.
func BenchmarkForkedGame(b *testing.B) {
	g, err := competitive.NewGame(24, 2, 72)
	if err != nil {
		b.Fatal(err)
	}
	mixes := make([]drop.Factory, 20)
	for trial := range mixes {
		mixes[trial] = drop.RandomMix(1+int64(trial)*7919, 0.5)
	}
	for _, tc := range []struct {
		name   string
		trials []drop.Factory
	}{{"greedy", []drop.Factory{drop.Greedy}}, {"randmix", mixes}} {
		b.Run(tc.name, func(b *testing.B) {
			if _, err := g.Play(tc.trials...); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Play(tc.trials...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimalUnit measures the matroid-greedy offline optimum on the
// byte-sliced clip.
func BenchmarkOptimalUnit(b *testing.B) {
	st := benchByteStream(b, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := offline.OptimalUnit(st, 480, 35); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalFrames measures the occupancy DP on whole-frame slices.
func BenchmarkOptimalFrames(b *testing.B) {
	st := benchFrameStream(b, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := offline.OptimalFrames(st, 480, 35); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGenerate measures the synthetic MPEG generator.
func BenchmarkTraceGenerate(b *testing.B) {
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinRate measures the zero-loss rate calculator: an O(T)
// feasibility pass per candidate rate, O(log R) of them.
func BenchmarkMinRate(b *testing.B) {
	st := benchFrameStream(b, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lossless.MinRate(st, 480); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoredPlan measures the taut-string optimal stored-video plan.
func BenchmarkStoredPlan(b *testing.B) {
	clip := benchClip(b, 1000)
	demand := make([]int, len(clip.Frames))
	for i, f := range clip.Frames {
		demand[i] = f.Size
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lossless.OptimalStoredPlan(demand, 480, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidate measures the schedule validator on a lossy run.
func BenchmarkValidate(b *testing.B) {
	st := benchByteStream(b, 500)
	s, err := core.Simulate(st, core.Config{ServerBuffer: 480, Rate: 33, Policy: drop.Greedy})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension-experiment benchmarks (see internal/experiment/extensions.go).

func BenchmarkTableMuxGain(b *testing.B)      { benchExperiment(b, "muxgain") }
func BenchmarkTableAlternatives(b *testing.B) { benchExperiment(b, "alternatives") }
func BenchmarkTableDecode(b *testing.B)       { benchExperiment(b, "decode") }
func BenchmarkTableProactive(b *testing.B)    { benchExperiment(b, "proactive") }
func BenchmarkTableJitter(b *testing.B)       { benchExperiment(b, "jitter") }

func BenchmarkTableGlitch(b *testing.B)       { benchExperiment(b, "glitch") }
func BenchmarkTableAdaptive(b *testing.B)     { benchExperiment(b, "adaptive") }
func BenchmarkTableAdmission(b *testing.B)    { benchExperiment(b, "admission") }
func BenchmarkTableRobust(b *testing.B)       { benchExperiment(b, "robust") }
func BenchmarkTableSmartWeights(b *testing.B) { benchExperiment(b, "smartweights") }
func BenchmarkTableFairness(b *testing.B)     { benchExperiment(b, "fairness") }
