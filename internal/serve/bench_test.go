package serve

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// BenchmarkEngineStepDensity is the sessions-per-core gate for the
// compute-once-serve-many layer: one shard tick over K same-clip sessions
// (shared precomputed schedule, struct-of-arrays rows, pre-encoded
// flushes). Every variant is pinned at 0 allocs/op in steady state by the
// benchdiff gate; the sess-steps/s metric is session steps advanced per
// second on the one core driving the shard. cohort/catchup skips three
// ticks before every tick it serves, so each row is four steps behind and
// takes the coalesced path: one write of four steps' bytes.
func BenchmarkEngineStepDensity(b *testing.B) {
	defer quietRuntime()()
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 200
	clip, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name     string
		stride   int64 // ticks the model clock advances per served tick
		sessions []int
	}{
		{name: "cohort/sessions", stride: 1, sessions: []int{1000, 10000, 100000}},
		{name: "cohort/catchup", stride: 4, sessions: []int{10000}},
	}
	for _, m := range modes {
		for _, sessions := range m.sessions {
			b.Run(fmt.Sprintf("%s=%d", m.name, sessions), func(b *testing.B) {
				eng, err := newEngine(clip, trace.PaperWeights(), Config{
					Rate:         2 * int(clip.AverageRate()),
					Shards:       1,
					StepDuration: time.Millisecond, // never ticks: we drive the shard manually
					MaxDelay:     16,
				})
				if err != nil {
					b.Fatal(err)
				}
				//smoothvet:transfer newEngine starts no shard clock: the test drives it
				sh := eng.shards[0]
				c, err := eng.cohortFor(16, 16*eng.cfg.Rate)
				if err != nil {
					b.Fatal(err)
				}
				// prime registers a full load and runs the admission tick
				// off the clock, so the timed region measures steady state.
				var tick int64
				prime := func() {
					for i := 0; i < sessions; i++ {
						eng.active.Add(1)
						eng.sessWG.Add(1)
						sh.queue.Push(cohortRow{cohort: c, conn: nopConn{io.Discard}})
					}
					tick++
					sh.step(tick)
				}
				prime()
				// Collect the priming garbage off the clock, and let the
				// runtime's post-GC goroutines (scavenger, cleanups) run now.
				runtime.GC()
				time.Sleep(time.Millisecond)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if len(sh.rows.cursors) == 0 {
						// Every session drained to End: refill off the clock.
						b.StopTimer()
						prime()
						b.StartTimer()
					}
					tick += m.stride
					sh.step(tick)
				}
				b.StopTimer()
				b.ReportMetric(float64(sessions)*float64(m.stride)*float64(b.N)/b.Elapsed().Seconds(), "sess-steps/s")
				eng.Close()
			})
		}
	}
}

// nopConn is a row connection that writes to a bare writer and closes as
// a no-op.
type nopConn struct{ io.Writer }

func (nopConn) Close() error { return nil }

// quietRuntime keeps the runtime's own allocations out of the timed
// windows: it drops to one P for the caller's duration (restore with the
// returned function), as testing.AllocsPerRun does, and parks spare
// threads. The benchmark timer reads memory statistics under a
// stop-the-world; restarting the world may wake a P, and with no idle
// thread the runtime starts one inside the window (runtime.allocm: about
// 5 KB in 5 mallocs, 1100 B/op at -benchtime 5x). With one P a
// background goroutine such as the scavenger also waits for the timed
// loop to yield. Each goroutine here holds its own thread while it sleeps.
// internal/obs carries the same helper.
func quietRuntime() (restore func()) {
	procs := runtime.GOMAXPROCS(1)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			time.Sleep(time.Millisecond)
		}()
	}
	wg.Wait()
	return func() { runtime.GOMAXPROCS(procs) }
}
