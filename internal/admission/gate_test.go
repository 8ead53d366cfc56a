package admission

import (
	"sync"
	"testing"
)

// constSamples is a deterministic demand trace with mean 4 and peak 8.
func constSamples() []int {
	s := make([]int, 64)
	for i := range s {
		s[i] = 4
		if i%4 == 0 {
			s[i] = 8
		}
	}
	return s
}

func TestGateCeilingMatchesMaxStreams(t *testing.T) {
	samples := constSamples()
	want, err := MaxStreams(samples, 1000, 1e-6, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGate(samples, 1000, 1e-6, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxStreams() != want {
		t.Fatalf("gate ceiling %d, MaxStreams %d", g.MaxStreams(), want)
	}
	if want <= 0 {
		t.Fatalf("degenerate ceiling %d", want)
	}
}

// TestNewGateCountsNoDecisions checks that building a gate leaves the
// decision counters alone: sizing the ceiling admits and rejects nobody.
func TestNewGateCountsNoDecisions(t *testing.T) {
	admitted0, rejected0 := Counters()
	if _, err := NewGate(constSamples(), 1000, 1e-6, 1<<20); err != nil {
		t.Fatal(err)
	}
	if admitted1, rejected1 := Counters(); admitted1 != admitted0 || rejected1 != rejected0 {
		t.Fatalf("NewGate moved the counters: admitted %d -> %d, rejected %d -> %d",
			admitted0, admitted1, rejected0, rejected1)
	}
}

func TestGateAdmitsExactlyCeiling(t *testing.T) {
	g, err := NewGate(constSamples(), 100, 1e-3, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	k := g.MaxStreams()
	admitted0, rejected0 := Counters()
	for i := 0; i < k; i++ {
		if !g.TryAdmit() {
			t.Fatalf("admit %d/%d refused below the ceiling", i, k)
		}
	}
	if g.TryAdmit() {
		t.Fatalf("admit above ceiling %d succeeded", k)
	}
	if g.Active() != k {
		t.Fatalf("active %d, want %d", g.Active(), k)
	}
	admitted1, rejected1 := Counters()
	if admitted1-admitted0 != uint64(k) || rejected1-rejected0 != 1 {
		t.Fatalf("counter deltas admit=%d reject=%d, want %d and 1",
			admitted1-admitted0, rejected1-rejected0, k)
	}
	g.Release()
	if !g.TryAdmit() {
		t.Fatal("admit after release refused")
	}
}

func TestGateConcurrentNeverOverAdmits(t *testing.T) {
	g, err := NewGate(constSamples(), 60, 1e-2, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	k := g.MaxStreams()
	const workers = 8
	var wg sync.WaitGroup
	admits := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < k; i++ {
				if g.TryAdmit() {
					admits[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range admits {
		total += n
	}
	if total != k {
		t.Fatalf("concurrent admits %d, want exactly ceiling %d", total, k)
	}
}

func TestGateRejectsEmptySamples(t *testing.T) {
	if _, err := NewGate(nil, 1000, 1e-6, 1024); err == nil {
		t.Fatal("NewGate with no samples succeeded")
	}
}

// BenchmarkNewGate sizes the front tier's gate: a 150-frame clip's
// per-step demand on C = 1000 x mean at eps = 1e-6.
func BenchmarkNewGate(b *testing.B) {
	samples := demandSamples(b, 1, 150)
	var mean float64
	for _, x := range samples {
		mean += float64(x)
	}
	mean /= float64(len(samples))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewGate(samples, 1000*mean, 1e-6, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}
