package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/sched"
	"repro/internal/stream"
)

// forkable lists a policy of every type drop.Clone can copy.
var forkable = []drop.Factory{drop.TailDrop, drop.HeadDrop, drop.Greedy, drop.Random(7), drop.RandomMix(7, 0.5)}

// gameStream builds the Theorem 4.8 shape: B+1 weight-1 slices at step 0,
// one weight-alpha slice at each step 1..cut and, with burst, B+1
// weight-alpha slices at cut+1.
func gameStream(B int, alpha float64, cut int, burst bool) *stream.Stream {
	b := stream.NewBuilder().AddRun(0, B+1, 1, 1)
	for t := 1; t <= cut; t++ {
		b.AddRun(t, 1, 1, alpha)
	}
	if burst {
		b.AddRun(cut+1, B+1, 1, alpha)
	}
	return b.MustBuild()
}

// prefixStream returns the runs of st that arrive by step cut, followed by
// the runs of tail, which must arrive after cut.
func prefixStream(st *stream.Stream, cut int, tail ...stream.Run) *stream.Stream {
	b := stream.NewBuilder()
	for _, r := range append(slices.Clone(st.RunsThrough(cut)), tail...) {
		b.AddRun(r.Arrival, r.Count, r.Size, r.Weight)
	}
	return b.MustBuild()
}

// sameSchedule reports how got differs from want, or "" if every outcome,
// every per-step trace and the benefit's bits agree.
func sameSchedule(got, want *sched.Schedule) string {
	switch {
	case got.Stream != want.Stream || got.Algorithm != want.Algorithm || got.Params != want.Params:
		return fmt.Sprintf("run %s %+v, want %s %+v", got.Algorithm, got.Params, want.Algorithm, want.Params)
	case !slices.Equal(got.Outcomes, want.Outcomes):
		return fmt.Sprintf("outcomes %v, want %v", got.Outcomes, want.Outcomes)
	case !slices.Equal(got.SentPerStep, want.SentPerStep):
		return fmt.Sprintf("sent per step %v, want %v", got.SentPerStep, want.SentPerStep)
	case !slices.Equal(got.ServerOcc, want.ServerOcc):
		return fmt.Sprintf("server occupancy %v, want %v", got.ServerOcc, want.ServerOcc)
	case !slices.Equal(got.ClientOcc, want.ClientOcc):
		return fmt.Sprintf("client occupancy %v, want %v", got.ClientOcc, want.ClientOcc)
	case math.Float64bits(got.Benefit()) != math.Float64bits(want.Benefit()):
		return fmt.Sprintf("benefit %v, want %v", got.Benefit(), want.Benefit())
	}
	return ""
}

// checkForks runs base under cfg once, and after every step t1 forks it
// onto each stream endings(t1) returns; each fork must finish exactly as a
// run of that stream from step 0 does, and so must the base run after all
// the forks. A fork onto a stream that ends before t1 must be refused.
func checkForks(t *testing.T, base *stream.Stream, cfg core.Config, endings func(t1 int) []*stream.Stream) {
	t.Helper()
	r, fork := core.NewRunner(), core.NewRunner()
	if err := r.Start(base, cfg); err != nil {
		t.Fatal(err)
	}
	for t1 := 0; t1 <= base.Horizon(); t1++ {
		if err := r.Advance(t1); err != nil {
			t.Fatal(err)
		}
		for _, st2 := range endings(t1) {
			err := r.ForkInto(fork, st2)
			if st2.Horizon() < t1 {
				if err == nil {
					t.Fatalf("cut %d: fork onto a stream that ends at step %d accepted", t1, st2.Horizon())
				}
				continue
			}
			if err != nil {
				t.Fatalf("cut %d: %v", t1, err)
			}
			got, err := fork.Finish()
			if err != nil {
				t.Fatalf("cut %d: %v", t1, err)
			}
			want, err := core.Simulate(st2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameSchedule(got, want); diff != "" {
				t.Fatalf("cut %d onto %d slices: forked run differs from a replay: %s", t1, st2.Len(), diff)
			}
		}
	}
	got, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Simulate(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameSchedule(got, want); diff != "" {
		t.Fatalf("the forked-from run differs from a replay: %s", diff)
	}
}

// TestForkMatchesReplay checks Runner.ForkInto against from-scratch runs:
// on the Theorem 4.8 streams with both endings at every cut step, and on
// random run-streams of mixed slice sizes, truncated, extended by a burst
// or continued as they are, under lawful, under-provisioned, delayed-link
// and late-dropping configurations, for every policy drop.Clone copies.
func TestForkMatchesReplay(t *testing.T) {
	for _, f := range forkable {
		name := f().Name()
		for _, B := range []int{3, 8} {
			for _, alpha := range []float64{2, 4.015} {
				t.Run(fmt.Sprintf("game/%s/B=%d/alpha=%v", name, B, alpha), func(t *testing.T) {
					checkForks(t, gameStream(B, alpha, 3*B, false), core.Config{ServerBuffer: B, Rate: 1, Policy: f},
						func(t1 int) []*stream.Stream {
							return []*stream.Stream{gameStream(B, alpha, t1, false), gameStream(B, alpha, t1, true)}
						})
				})
			}
		}
		for i, cfg := range []core.Config{
			{ServerBuffer: 6, Rate: 3},
			{ServerBuffer: 12, Rate: 4, LinkDelay: 2},
			{ServerBuffer: 8, Rate: 2, Delay: 2, ServerDropsLate: true},
			{ServerBuffer: 10, Rate: 5, ClientBuffer: 4},
		} {
			cfg.Policy = f
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("runs/%s/cfg%d/seed%d", name, i, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					base := mixedRunStream(seed, 16)
					checkForks(t, base, cfg, func(t1 int) []*stream.Stream {
						burst := stream.Run{Arrival: t1 + 1, Count: 1 + rng.Intn(8), Size: 1 + rng.Intn(4), Weight: float64(1 + rng.Intn(9))}
						return []*stream.Stream{prefixStream(base, t1), prefixStream(base, t1, burst), base}
					})
				})
			}
		}
	}
}

// FuzzForkMatchesReplay forks a random run-stream's run at one step onto
// the stream cut there and extended by a random burst, under a random
// configuration and policy, and requires the fork to finish exactly as a
// run of the extended stream from step 0 does.
func FuzzForkMatchesReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, buffer, rate, linkDelay, policy, cut int) {
		rng := rand.New(rand.NewSource(seed))
		base := mixedRunStream(seed, 4+rng.Intn(20))
		cfg := core.Config{
			ServerBuffer:    1 + int(uint(buffer)%24),
			Rate:            1 + int(uint(rate)%6),
			LinkDelay:       int(uint(linkDelay) % 3),
			ServerDropsLate: rng.Intn(4) == 0,
			Policy:          forkable[int(uint(policy)%uint(len(forkable)))],
		}
		if rng.Intn(3) == 0 {
			cfg.Delay = 1 + rng.Intn(4)
		}
		t1 := int(uint(cut) % uint(base.Horizon()+1))
		st2 := prefixStream(base, t1, stream.Run{Arrival: t1 + 1 + rng.Intn(3), Count: 1 + rng.Intn(12),
			Size: 1 + rng.Intn(5), Weight: float64(1 + rng.Intn(9))})

		r, fork := core.NewRunner(), core.NewRunner()
		if err := r.Start(base, cfg); err != nil {
			t.Skip(err) // a configuration Config refuses
		}
		if err := r.Advance(t1); err != nil {
			t.Fatal(err)
		}
		if err := r.ForkInto(fork, st2); err != nil {
			t.Fatal(err)
		}
		got, err := fork.Finish()
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Simulate(st2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameSchedule(got, want); diff != "" {
			t.Fatalf("cut %d: %s", t1, diff)
		}
	})
}

// TestForkIntoRefusesOtherPrefix checks that a fork onto a stream whose
// arrivals differ from the run's at or before the last simulated step is
// an error, and that one differing only later is not.
func TestForkIntoRefusesOtherPrefix(t *testing.T) {
	base := mixedRunStream(5, 12)
	r := core.NewRunner()
	if err := r.Start(base, core.Config{ServerBuffer: 8, Rate: 3, Policy: drop.Greedy}); err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(5); err != nil {
		t.Fatal(err)
	}
	reweigh := func(at int) *stream.Stream {
		b := stream.NewBuilder()
		for _, run := range base.Runs() {
			if run.Arrival == at {
				run.Weight += 100
			}
			b.AddRun(run.Arrival, run.Count, run.Size, run.Weight)
		}
		return b.MustBuild()
	}
	for at, wantErr := range map[int]bool{0: true, 5: true, 6: false, 11: false} {
		err := r.ForkInto(core.NewRunner(), reweigh(at))
		if (err != nil) != wantErr {
			t.Errorf("fork after step 5 onto a stream reweighed at step %d: error %v, want an error: %v", at, err, wantErr)
		}
	}
	if err := r.ForkInto(r, base); err == nil {
		t.Error("a fork onto its own arena accepted")
	}
	if err := r.ForkInto(core.NewRunner(), prefixStream(base, 3)); err == nil {
		t.Error("a fork onto a stream ending before the last simulated step accepted")
	}

	// The run drains by step 4 and nothing arrives until step 10, so
	// cutting the stream after step 0 changes no arrival up to step 6;
	// but a run of the cut stream ends at step 4, so the fork is refused.
	gap := stream.NewBuilder().AddRun(0, 2, 1, 1).AddRun(10, 2, 1, 1).MustBuild()
	if err := r.Start(gap, core.Config{ServerBuffer: 4, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(6); err != nil {
		t.Fatal(err)
	}
	if err := r.ForkInto(core.NewRunner(), prefixStream(gap, 0)); err == nil {
		t.Error("a fork onto a stream whose run ended before the last simulated step accepted")
	}
}

// plainPolicy is a drop policy of a type package drop does not know.
type plainPolicy struct{ drop.Policy }

func (plainPolicy) Name() string { return "plain" }

// TestForkIntoRefusesUnclonablePolicy checks that a fork of a run whose
// policy drop.Clone cannot copy fails with the policy's name, leaving the
// destination arena usable, and that stepping an arena with no run in
// progress is an error.
func TestForkIntoRefusesUnclonablePolicy(t *testing.T) {
	st := mixedRunStream(2, 10)
	for _, f := range []drop.Factory{
		drop.Anticipate(0.5, 0),
		func() drop.Policy { return plainPolicy{drop.TailDrop()} },
	} {
		r, dst := core.NewRunner(), core.NewRunner()
		if err := r.Start(st, core.Config{ServerBuffer: 6, Rate: 2, Policy: f}); err != nil {
			t.Fatal(err)
		}
		if err := r.Advance(4); err != nil {
			t.Fatal(err)
		}
		name := f().Name()
		if err := r.ForkInto(dst, st); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("fork of a %s run: error %v, want one naming %q", name, err, name)
		}
		if _, err := dst.Run(st, core.Config{ServerBuffer: 6, Rate: 2}); err != nil {
			t.Errorf("destination arena unusable after a refused fork: %v", err)
		}
	}
	idle := core.NewRunner()
	if err := idle.Advance(3); err == nil {
		t.Error("Advance with no run in progress accepted")
	}
	if err := idle.ForkInto(core.NewRunner(), st); err == nil {
		t.Error("ForkInto with no run in progress accepted")
	}
	if _, err := idle.Finish(); err == nil {
		t.Error("Finish with no run in progress accepted")
	}
}

// TestForkedArenasRecycleConcurrently checks that a run and an unfinished
// fork of it, which share a random policy's draw tape, can be recycled by
// new runs on two goroutines at once.
func TestForkedArenasRecycleConcurrently(t *testing.T) {
	st := mixedRunStream(3, 10)
	cfg := core.Config{ServerBuffer: 4, Rate: 1, Policy: drop.RandomMix(5, 0.5)}
	r, fork := core.NewRunner(), core.NewRunner()
	if err := r.Start(st, cfg); err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(5); err != nil {
		t.Fatal(err)
	}
	if err := r.ForkInto(fork, st); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, a := range []*core.Runner{r, fork} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Run(st, cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
