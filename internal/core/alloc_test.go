package core_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/stream"
	"repro/internal/trace"
)

// The allocation pins below hold the simulation hot path to zero
// allocations once its backing arrays have grown: each measured call is a
// whole pass over a byte-sliced clip (one run per frame, unit slices) that
// overflows the server buffer, so victims, splits and partial sends all
// happen inside the measurement.

const (
	allocBuffer = 480
	allocRate   = 35
)

func allocStream(t *testing.T) *stream.Stream {
	t.Helper()
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 300
	clip, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.ByteSliceStream(clip, trace.PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// serverPass resets sv with a recycled greedy policy, drains st through it,
// calling sent with every step's batches, and returns how many runs it
// dropped.
func serverPass(sv *core.Server, st *stream.Stream, sent func(b []core.Batch)) int {
	pol := drop.Greedy()
	defer drop.Recycle(pol)
	sv.Reset(allocBuffer, allocRate, pol, core.ServerOptions{})
	dropped := 0
	for t := 0; t <= st.Horizon() || !sv.Empty(); t++ {
		res := sv.Step(t, st.RunsAt(t))
		sent(res.Sent)
		dropped += len(res.Dropped)
	}
	return dropped
}

func TestServerStepDoesNotAllocate(t *testing.T) {
	st := allocStream(t)
	sv := core.NewServer(allocBuffer, allocRate, drop.Greedy(), core.ServerOptions{})
	if serverPass(sv, st, func([]core.Batch) {}) == 0 {
		t.Fatal("no overflow in the measured stream")
	}
	pass := func() { serverPass(sv, st, func([]core.Batch) {}) }
	if n := testing.AllocsPerRun(5, pass); n != 0 {
		t.Errorf("%v allocs per server pass, want 0", n)
	}
}

func TestClientStepDoesNotAllocate(t *testing.T) {
	st := allocStream(t)
	// Record what the server sends, then replay it into the client over a
	// zero-delay link.
	var delivered [][]core.Batch
	sv := core.NewServer(allocBuffer, allocRate, drop.Greedy(), core.ServerOptions{})
	serverPass(sv, st, func(b []core.Batch) { delivered = append(delivered, slices.Clone(b)) })
	delay := core.DelayFor(allocBuffer, allocRate)
	cl := core.NewClient(allocBuffer, delay, 0, st)
	pass := func() {
		cl.Reset(allocBuffer, delay, 0, st)
		for t := 0; t <= st.Horizon()+delay; t++ {
			var b []core.Batch
			if t < len(delivered) {
				b = delivered[t]
			}
			cl.Step(t, b)
		}
	}
	pass()
	if n := testing.AllocsPerRun(5, pass); n != 0 {
		t.Errorf("%v allocs per client pass, want 0", n)
	}
}

func TestRunnerDoesNotAllocate(t *testing.T) {
	st := allocStream(t)
	for _, tc := range []struct {
		name string
		f    drop.Factory
	}{{"taildrop", drop.TailDrop}, {"headdrop", drop.HeadDrop}, {"greedy", drop.Greedy}, {"random", drop.Random(1)}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{ServerBuffer: allocBuffer, Rate: allocRate, Policy: tc.f}
			r := core.NewRunner()
			s, err := r.Run(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s.DroppedSlices() == 0 {
				t.Fatal("no overflow in the measured stream")
			}
			if n := testing.AllocsPerRun(5, func() { _, _ = r.Run(st, cfg) }); n != 0 {
				t.Errorf("%v allocs per run, want 0", n)
			}
		})
	}
}

// TestRunnerDoesNotAllocateAcrossGC pins a warm run at zero allocations
// even right after garbage collections: the free lists behind
// AcquireRunner and the drop policies keep their items through GC cycles,
// which a sync.Pool would empty.
func TestRunnerDoesNotAllocateAcrossGC(t *testing.T) {
	st := allocStream(t)
	for _, tc := range []struct {
		name string
		f    drop.Factory
	}{{"taildrop", drop.TailDrop}, {"greedy", drop.Greedy}, {"random", drop.Random(1)}, {"randommix", drop.RandomMix(1, 0.5)}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{ServerBuffer: allocBuffer, Rate: allocRate, Policy: tc.f}
			run := func() {
				r := core.AcquireRunner()
				defer core.ReleaseRunner(r)
				if _, err := r.Run(st, cfg); err != nil {
					t.Fatal(err)
				}
			}
			run()
			acrossGC := func() {
				runtime.GC()
				runtime.GC()
				run()
			}
			if n := testing.AllocsPerRun(5, acrossGC); n != 0 {
				t.Errorf("%v allocs per run after two GC cycles, want 0", n)
			}
		})
	}
}
