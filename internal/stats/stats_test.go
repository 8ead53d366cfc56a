package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if s.Mean != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if s.StdDev != 2 {
		t.Errorf("StdDev = %v, want 2", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if !strings.Contains(s.String(), "mean=5") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestLognormalFromMoments(t *testing.T) {
	ln, err := LognormalFromMoments(38, 15)
	if err != nil {
		t.Fatal(err)
	}
	if got := ln.Mean(); math.Abs(got-38) > 1e-9 {
		t.Errorf("Mean = %v, want 38", got)
	}
	// Sample mean should approach 38.
	rng := rand.New(rand.NewSource(1))
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += ln.Sample(rng)
	}
	if got := sum / n; math.Abs(got-38) > 1 {
		t.Errorf("sample mean = %v, want ~38", got)
	}
}

func TestLognormalZeroSD(t *testing.T) {
	ln, err := LognormalFromMoments(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if got := ln.Sample(rng); math.Abs(got-10) > 1e-9 {
		t.Errorf("deterministic lognormal sample = %v, want 10", got)
	}
}

func TestLognormalErrors(t *testing.T) {
	if _, err := LognormalFromMoments(0, 1); err == nil {
		t.Error("mean 0 accepted")
	}
	if _, err := LognormalFromMoments(1, -1); err == nil {
		t.Error("negative sd accepted")
	}
}

func TestFitLognormal(t *testing.T) {
	want := Lognormal{Mu: 2, Sigma: 0.5}
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = want.Sample(rng)
	}
	got, err := FitLognormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Mu-want.Mu) > 0.02 || math.Abs(got.Sigma-want.Sigma) > 0.02 {
		t.Errorf("fit = %+v, want %+v", got, want)
	}
}

func TestFitLognormalErrors(t *testing.T) {
	if _, err := FitLognormal(nil); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := FitLognormal([]float64{1, -2}); err == nil {
		t.Error("negative observation accepted")
	}
}

func TestAR1ConvergesToTarget(t *testing.T) {
	a := AR1{Phi: 0.9, Target: 5, Noise: 0.1}
	rng := rand.New(rand.NewSource(3))
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += a.Next(rng)
	}
	if got := sum / n; math.Abs(got-5) > 0.1 {
		t.Errorf("AR1 long-run mean = %v, want ~5", got)
	}
}

func TestAutocorrelation(t *testing.T) {
	// White noise: lag-0 is 1, higher lags near 0.
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	ac := Autocorrelation(xs, 3)
	if math.Abs(ac[0]-1) > 1e-9 {
		t.Errorf("lag-0 autocorrelation = %v, want 1", ac[0])
	}
	for lag := 1; lag <= 3; lag++ {
		if math.Abs(ac[lag]) > 0.05 {
			t.Errorf("white-noise lag-%d autocorrelation = %v", lag, ac[lag])
		}
	}
	// A persistent AR(1) process has high lag-1 autocorrelation.
	a := AR1{Phi: 0.95, Target: 0, Noise: 1}
	ys := make([]float64, 5000)
	for i := range ys {
		ys[i] = a.Next(rng)
	}
	if ac := Autocorrelation(ys, 1); ac[1] < 0.85 {
		t.Errorf("AR(0.95) lag-1 autocorrelation = %v, want ~0.95", ac[1])
	}
}

func TestAutocorrelationEdges(t *testing.T) {
	if ac := Autocorrelation(nil, 2); len(ac) != 3 || ac[0] != 0 {
		t.Errorf("empty sample ac = %v", ac)
	}
	// Constant sample: zero variance.
	ac := Autocorrelation([]float64{5, 5, 5}, 2)
	if ac[0] != 1 || ac[1] != 0 {
		t.Errorf("constant sample ac = %v", ac)
	}
	if ac := Autocorrelation([]float64{1, 2}, -1); len(ac) != 1 {
		t.Errorf("negative maxLag ac = %v", ac)
	}
}

func TestIndexOfDispersion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// IID positive noise: IDC near Var/mean at any window.
	xs := make([]float64, 8000)
	for i := range xs {
		xs[i] = float64(rng.Intn(10)) // uniform {0..9}: mean 4.5, var 8.25
	}
	idc := IndexOfDispersion(xs, 50)
	want := 8.25 / 4.5
	if math.Abs(idc-want) > 0.4 {
		t.Errorf("IID IDC = %v, want ≈ %v", idc, want)
	}
	// Positively correlated traffic has a larger IDC at large windows.
	a := AR1{Phi: 0.98, Target: 5, Noise: 1}
	ys := make([]float64, 8000)
	for i := range ys {
		ys[i] = a.Next(rng)
	}
	if got := IndexOfDispersion(ys, 200); got < 2*IndexOfDispersion(ys, 1) {
		t.Errorf("correlated IDC did not grow with window: %v", got)
	}
}

func TestIndexOfDispersionEdges(t *testing.T) {
	if IndexOfDispersion(nil, 5) != 0 {
		t.Error("empty sample IDC != 0")
	}
	if IndexOfDispersion([]float64{1, 2, 3}, 0) != 0 {
		t.Error("window 0 IDC != 0")
	}
	if IndexOfDispersion([]float64{1, 2, 3}, 3) != 0 {
		t.Error("single window IDC != 0")
	}
	if IndexOfDispersion([]float64{0, 0, 0, 0}, 2) != 0 {
		t.Error("zero-mean IDC != 0")
	}
}
