package serve

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/trace"
)

// BenchmarkEngineStep measures one shard clock tick stepping many
// registered sessions (the engine's unit of serving work): each session
// advances its smoothing buffer one step, frames up to R payload bytes and
// flushes them to its wire in one batched write. ns/op is the cost of one
// tick over all sessions; divide by the session count for per-session cost.
func BenchmarkEngineStep(b *testing.B) {
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 200
	clip, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, sessions := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			eng, err := newEngine(clip, trace.PaperWeights(), Config{
				Rate:         2 * int(clip.AverageRate()),
				Shards:       1,
				StepDuration: time.Millisecond, // never ticks: we drive the shard manually
				MaxDelay:     16,
			})
			if err != nil {
				b.Fatal(err)
			}
			sh := eng.shards[0]
			var tick int64 // benchmarks drive the model clock themselves
			register := func() {
				for i := 0; i < sessions; i++ {
					s, err := eng.newSession(io.Discard, 16, 16*eng.cfg.Rate)
					if err != nil {
						b.Fatal(err)
					}
					sh.enqueue(admission{s: s})
				}
			}
			register()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick++
				sh.step(tick)
				if len(sh.sessions) == 0 {
					// Every session drained to End: refill off the clock.
					b.StopTimer()
					register()
					b.StartTimer()
				}
			}
			b.StopTimer()
			eng.Close()
		})
	}
}

// BenchmarkEngineStepDensity is the sessions-per-core gate for the
// compute-once-serve-many layer: one shard tick over K same-clip sessions,
// cohort-served (shared precomputed schedule, struct-of-arrays rows,
// pre-encoded flushes) versus the fallback per-session Sender path. The
// cohort variants are pinned at 0 allocs/op in steady state by the
// benchdiff gate; the sess-steps/s metric is session steps advanced per
// second on the one core driving the shard. cohort/catchup skips three
// ticks before every tick it serves, so each row is four steps behind and
// takes the coalesced path: one write of four steps' bytes.
func BenchmarkEngineStepDensity(b *testing.B) {
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 200
	clip, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name     string
		cohort   bool
		stride   int64 // ticks the model clock advances per served tick
		sessions []int
	}{
		// The fallback path at 100k sessions would hold 100k private
		// smoothing buffers (gigabytes); its own ceiling is the point of
		// the comparison, so it stops at 10k.
		{name: "cohort/sessions", cohort: true, stride: 1, sessions: []int{1000, 10000, 100000}},
		{name: "cohort/catchup", cohort: true, stride: 4, sessions: []int{10000}},
		{name: "fallback/sessions", cohort: false, stride: 1, sessions: []int{1000, 10000}},
	}
	for _, m := range modes {
		for _, sessions := range m.sessions {
			b.Run(fmt.Sprintf("%s=%d", m.name, sessions), func(b *testing.B) {
				eng, err := newEngine(clip, trace.PaperWeights(), Config{
					Rate:           2 * int(clip.AverageRate()),
					Shards:         1,
					StepDuration:   time.Millisecond, // never ticks: we drive the shard manually
					MaxDelay:       16,
					DisableCohorts: !m.cohort,
				})
				if err != nil {
					b.Fatal(err)
				}
				sh := eng.shards[0]
				delay, buffer := 16, 16*eng.cfg.Rate
				var c *Cohort
				if m.cohort {
					if c = eng.cohortFor(delay, buffer); c == nil {
						b.Fatal("cohort cache refused the key")
					}
				}
				// prime registers a full load and runs the admission tick
				// off the clock, so the timed region measures steady state.
				var tick int64
				prime := func() {
					for i := 0; i < sessions; i++ {
						if m.cohort {
							eng.active.Add(1)
							eng.sessWG.Add(1)
							sh.enqueue(admission{row: cohortRow{cohort: c, w: io.Discard}})
						} else {
							s, err := eng.newSession(io.Discard, delay, buffer)
							if err != nil {
								b.Fatal(err)
							}
							sh.enqueue(admission{s: s})
						}
					}
					tick++
					sh.step(tick)
				}
				prime()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if len(sh.sessions) == 0 && len(sh.rows.cursors) == 0 {
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
