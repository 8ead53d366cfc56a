package lossless

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/stream"
)

func randomStream(rng *rand.Rand) *stream.Stream {
	b := stream.NewBuilder()
	n := rng.Intn(25) + 1
	for i := 0; i < n; i++ {
		b.Add(rng.Intn(12), rng.Intn(4)+1, 1)
	}
	return b.MustBuild()
}

// lossFree reports whether the generic algorithm drops nothing.
func lossFree(t *testing.T, st *stream.Stream, B, R int) bool {
	t.Helper()
	s, err := core.Simulate(st, core.Config{ServerBuffer: B, Rate: R})
	if err != nil {
		t.Fatal(err)
	}
	return s.DroppedSlices() == 0
}

func TestMinBufferExact(t *testing.T) {
	// Property: simulation with MinBuffer loses nothing; with one byte
	// less it loses something (unless MinBuffer is already forced by the
	// largest slice).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStream(rng)
		R := rng.Intn(3) + 1
		B, err := MinBuffer(st, R)
		if err != nil {
			return false
		}
		if !lossFree(t, st, B, R) {
			t.Logf("seed %d: loss at MinBuffer=%d (R=%d)", seed, B, R)
			return false
		}
		if B > st.MaxSliceSize() && B > 1 && lossFree(t, st, B-1, R) {
			t.Logf("seed %d: no loss at MinBuffer-1=%d (R=%d)", seed, B-1, R)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestMinRateExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStream(rng)
		B := st.MaxSliceSize() + rng.Intn(6)
		R, err := MinRate(st, B)
		if err != nil {
			return false
		}
		if !lossFree(t, st, B, R) {
			t.Logf("seed %d: loss at MinRate=%d (B=%d)", seed, R, B)
			return false
		}
		if R > 1 && lossFree(t, st, B, R-1) {
			t.Logf("seed %d: no loss at MinRate-1=%d (B=%d)", seed, R-1, B)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestMinRateForDelayExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStream(rng)
		D := rng.Intn(6) + 1
		R, err := MinRateForDelay(st, D)
		if err != nil {
			return false
		}
		if !lossFree(t, st, R*D, R) {
			t.Logf("seed %d: loss at R=%d, B=RD=%d (D=%d)", seed, R, R*D, D)
			return false
		}
		if R > 1 && (R-1)*D >= st.MaxSliceSize() && lossFree(t, st, (R-1)*D, R-1) {
			t.Logf("seed %d: no loss at R-1=%d (D=%d)", seed, R-1, D)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// quadraticMinRate is MinRate as it was before the O(T log R) search: the
// largest per-interval bound over every one of the O(T²) intervals.
// Test-only reference.
func quadraticMinRate(st *stream.Stream, B int) int {
	cum := st.CumulativeArrivals()
	R := 1
	for t1 := 0; t1 < len(cum); t1++ {
		var before int64
		if t1 > 0 {
			before = cum[t1-1]
		}
		for t2 := t1; t2 < len(cum); t2++ {
			need := cum[t2] - before - int64(B)
			if need <= 0 {
				continue
			}
			length := int64(t2 - t1 + 1)
			if r := int((need + length - 1) / length); r > R {
				R = r
			}
		}
	}
	return R
}

// quadraticIntervalRate is MinRateForDelay's interval maximum as it was
// before the O(T log R) search, without the largest-slice adjustment.
// Test-only reference.
func quadraticIntervalRate(st *stream.Stream, D int) int {
	cum := st.CumulativeArrivals()
	R := 1
	for t1 := 0; t1 < len(cum); t1++ {
		var before int64
		if t1 > 0 {
			before = cum[t1-1]
		}
		for t2 := t1; t2 < len(cum); t2++ {
			bytes := cum[t2] - before
			window := int64(t2 - t1 + 1 + D)
			if r := int((bytes + window - 1) / window); r > R {
				R = r
			}
		}
	}
	return R
}

// TestMinRateMatchesQuadraticReference compares MinRate and
// MinRateForDelay with the interval-by-interval definitions on random
// streams of 0-40 steps, whose frames hold up to three runs of up to five
// slices of size 1-8 and whose share of empty steps varies, so the rates
// range from 1 to well above the mean; half of them add one slice of size
// 8-31.
func TestMinRateMatchesQuadraticReference(t *testing.T) {
	var rateOne, oversizeForBuffer, zeroDelay, oversizeForDelay int
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := stream.NewBuilder()
		busy := rng.Float64() * rng.Float64()
		for at := rng.Intn(40); at >= 0; at-- {
			if rng.Float64() > busy {
				continue
			}
			for runs := 1 + rng.Intn(3); runs > 0; runs-- {
				size := 1 + rng.Intn(8)
				b.AddRun(at, 1+rng.Intn(5), size, float64(size))
			}
		}
		if rng.Intn(2) == 0 {
			// One large slice, which the largest-slice rule may have to
			// pay for when the rest is light.
			size := 8 + rng.Intn(24)
			b.Add(rng.Intn(40), size, float64(size))
		}
		st := b.MustBuild()

		B := 1 + rng.Intn(2*st.MaxSliceSize()+8)
		got, err := MinRate(st, B)
		switch {
		case st.MaxSliceSize() > B:
			oversizeForBuffer++
			if err == nil {
				t.Fatalf("seed %d: MinRate accepted B=%d below a slice of %d", seed, B, st.MaxSliceSize())
			}
		case err != nil:
			t.Fatalf("seed %d: MinRate(B=%d): %v", seed, B, err)
		case got != quadraticMinRate(st, B):
			t.Fatalf("seed %d: MinRate(B=%d) = %d, quadratic reference %d", seed, B, got, quadraticMinRate(st, B))
		case got == 1:
			rateOne++
		}

		D := rng.Intn(6)
		want := quadraticIntervalRate(st, D)
		switch {
		case D == 0:
			zeroDelay++
			want = max(want, st.MaxSliceSize())
		case st.MaxSliceSize() > want*D:
			oversizeForDelay++
			want = (st.MaxSliceSize() + D - 1) / D
		}
		if got, err := MinRateForDelay(st, D); err != nil || got != want {
			t.Fatalf("seed %d: MinRateForDelay(D=%d) = %d, %v; quadratic reference %d", seed, D, got, err, want)
		}
	}
	for _, c := range []struct {
		name string
		n    int
	}{{"R = 1", rateOne}, {"slice > B", oversizeForBuffer}, {"D = 0", zeroDelay}, {"slice > R·D", oversizeForDelay}} {
		if c.n < 50 {
			t.Errorf("only %d of 3000 streams covered %s", c.n, c.name)
		}
	}
}

func TestMinBufferSmoke(t *testing.T) {
	// 6 bytes at step 0, R=2: occupancy after step 0 is 4.
	st := stream.NewBuilder().AddFrame(0, 1, 1, 1, 1, 1, 1).MustBuild()
	B, err := MinBuffer(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if B != 4 {
		t.Errorf("MinBuffer = %d, want 4", B)
	}
}

func TestMinRateSmoke(t *testing.T) {
	// 10 bytes at step 0, B=4: need ceil((10-4)/1) = 6 per step.
	b := stream.NewBuilder()
	for i := 0; i < 10; i++ {
		b.Add(0, 1, 1)
	}
	st := b.MustBuild()
	R, err := MinRate(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	if R != 6 {
		t.Errorf("MinRate = %d, want 6", R)
	}
}

func TestErrors(t *testing.T) {
	st := stream.NewBuilder().Add(0, 5, 5).MustBuild()
	if _, err := MinBuffer(st, 0); err == nil {
		t.Error("MinBuffer R=0 accepted")
	}
	if _, err := MinRate(st, 0); err == nil {
		t.Error("MinRate B=0 accepted")
	}
	if _, err := MinRate(st, 4); err == nil {
		t.Error("MinRate with slice > B accepted")
	}
	if _, err := MinRateForDelay(st, -1); err == nil {
		t.Error("MinRateForDelay D<0 accepted")
	}
}

func TestMinBufferEmptyStream(t *testing.T) {
	st := stream.NewBuilder().MustBuild()
	B, err := MinBuffer(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	if B != 1 {
		t.Errorf("MinBuffer(empty) = %d, want 1", B)
	}
}

// planFeasible checks the plan stays inside the corridor and delivers all
// bytes on time.
func planFeasible(t *testing.T, p *Plan, demand []int, clientBuffer, startup int) {
	t.Helper()
	rates := p.Rates()
	x := 0.0
	var played int64
	for step, r := range rates {
		if r < -1e-9 {
			t.Fatalf("negative rate %v at step %d", r, step)
		}
		x += r
		if step >= startup && step-startup < len(demand) {
			played += int64(demand[step-startup])
		}
		if x < float64(played)-1e-6 {
			t.Fatalf("underflow at step %d: sent %.3f < played %d", step, x, played)
		}
		if x > float64(played)+float64(clientBuffer)+1e-6 {
			t.Fatalf("overflow at step %d: sent %.3f > played %d + buffer %d", step, x, played, clientBuffer)
		}
	}
	if math.Abs(x-float64(p.Total)) > 1e-6 {
		t.Fatalf("plan transmits %.3f of %d bytes", x, p.Total)
	}
}

func TestOptimalStoredPlanSmooth(t *testing.T) {
	// Constant demand with ample buffer: a single segment at the demand
	// rate (after the startup build-up is averaged in).
	demand := []int{10, 10, 10, 10, 10}
	p, err := OptimalStoredPlan(demand, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	planFeasible(t, p, demand, 100, 0)
	if p.Peak > 10+1e-9 {
		t.Errorf("peak = %v, want <= 10", p.Peak)
	}
}

func TestOptimalStoredPlanStartupHelps(t *testing.T) {
	// A big first frame: with startup delay the peak drops.
	demand := []int{100, 1, 1, 1, 1, 1, 1, 1}
	p0, err := OptimalStoredPlan(demand, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := OptimalStoredPlan(demand, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	planFeasible(t, p0, demand, 1000, 0)
	planFeasible(t, p4, demand, 1000, 4)
	if p4.Peak >= p0.Peak {
		t.Errorf("startup did not reduce peak: %v vs %v", p4.Peak, p0.Peak)
	}
}

func TestOptimalStoredPlanTightBuffer(t *testing.T) {
	// A tiny client buffer forces near-just-in-time transmission.
	demand := []int{5, 50, 5, 50, 5}
	p, err := OptimalStoredPlan(demand, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	planFeasible(t, p, demand, 50, 0)
}

func TestOptimalStoredPlanAchievesLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15) + 1
		demand := make([]int, n)
		for i := range demand {
			demand[i] = rng.Intn(30)
		}
		buffer := rng.Intn(60) + 30
		startup := rng.Intn(4)
		p, err := OptimalStoredPlan(demand, buffer, startup)
		if err != nil {
			return false
		}
		planFeasible(t, p, demand, buffer, startup)
		lb := MinPeakLowerBound(demand, buffer, startup)
		if p.Peak > lb+1e-6 {
			t.Logf("seed %d: peak %v > lower bound %v", seed, p.Peak, lb)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOptimalStoredPlanEdgeCases(t *testing.T) {
	p, err := OptimalStoredPlan(nil, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Segments) != 0 || p.Peak != 0 {
		t.Errorf("empty demand plan = %+v", p)
	}
	if _, err := OptimalStoredPlan([]int{1}, 0, 0); err == nil {
		t.Error("zero buffer accepted")
	}
	if _, err := OptimalStoredPlan([]int{1}, 1, -1); err == nil {
		t.Error("negative startup accepted")
	}
	if _, err := OptimalStoredPlan([]int{-1}, 1, 0); err == nil {
		t.Error("negative demand accepted")
	}
	// All-zero demand.
	p, err = OptimalStoredPlan([]int{0, 0}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Total != 0 {
		t.Errorf("total = %d", p.Total)
	}
}

func TestWindowSmoother(t *testing.T) {
	w, err := NewWindowSmoother(4)
	if err != nil {
		t.Fatal(err)
	}
	// A burst of 8 spreads over the window.
	if got := w.Step(8); got != 2 {
		t.Errorf("first send = %d, want 2", got)
	}
	if got := w.Step(0); got != 2 {
		t.Errorf("second send = %d, want 2", got)
	}
	if w.Backlog() != 4 {
		t.Errorf("backlog = %d, want 4", w.Backlog())
	}
}

func TestWindowSmootherErrors(t *testing.T) {
	if _, err := NewWindowSmoother(0); err == nil {
		t.Error("window 0 accepted")
	}
}

func TestWindowSmootherReducesPeak(t *testing.T) {
	// One big burst: peak with window w is ceil(burst/w).
	b := stream.NewBuilder()
	for i := 0; i < 100; i++ {
		b.Add(0, 1, 1)
	}
	st := b.MustBuild()
	w1, _ := NewWindowSmoother(1)
	w10, _ := NewWindowSmoother(10)
	_, peak1, _ := w1.SmoothStream(st)
	sends, peak10, maxBacklog := w10.SmoothStream(st)
	if peak1 != 100 {
		t.Errorf("window-1 peak = %d, want 100", peak1)
	}
	if peak10 != 10 {
		t.Errorf("window-10 peak = %d, want 10", peak10)
	}
	if maxBacklog != 90 {
		t.Errorf("max backlog = %d, want 90", maxBacklog)
	}
	var totalSent int
	for _, s := range sends {
		totalSent += s
	}
	if totalSent != 100 {
		t.Errorf("smoother lost bytes: sent %d of 100", totalSent)
	}
}

func TestWindowSmootherConservesBytes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStream(rng)
		w, err := NewWindowSmoother(rng.Intn(6) + 1)
		if err != nil {
			return false
		}
		sends, _, _ := w.SmoothStream(st)
		total := 0
		for _, s := range sends {
			total += s
		}
		return total == st.TotalBytes() && w.Backlog() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStoredPlanSmootherThanWorkConserving(t *testing.T) {
	// The taut string is the smoothest feasible schedule: its rate
	// variance must not exceed that of the just-in-time (work-conserving
	// playback-driven) schedule, on bursty demand.
	rng := rand.New(rand.NewSource(17))
	demand := make([]int, 200)
	for i := range demand {
		if rng.Intn(4) == 0 {
			demand[i] = rng.Intn(80)
		}
	}
	const (
		buffer  = 300
		startup = 8
	)
	p, err := OptimalStoredPlan(demand, buffer, startup)
	if err != nil {
		t.Fatal(err)
	}
	variance := func(rates []float64) float64 {
		var sum float64
		for _, r := range rates {
			sum += r
		}
		mean := sum / float64(len(rates))
		var ss float64
		for _, r := range rates {
			ss += (r - mean) * (r - mean)
		}
		return ss / float64(len(rates))
	}
	taut := p.Rates()
	// Just-in-time: transmit each frame exactly when played.
	jit := make([]float64, len(taut))
	for i, d := range demand {
		if startup+i < len(jit) {
			jit[startup+i] = float64(d)
		}
	}
	if variance(taut) > variance(jit)+1e-9 {
		t.Errorf("taut-string variance %v above just-in-time %v", variance(taut), variance(jit))
	}
	// And its peak is no higher either.
	peakOf := func(rates []float64) float64 {
		m := 0.0
		for _, r := range rates {
			if r > m {
				m = r
			}
		}
		return m
	}
	if peakOf(taut) > peakOf(jit)+1e-9 {
		t.Errorf("taut-string peak %v above just-in-time %v", peakOf(taut), peakOf(jit))
	}
}
