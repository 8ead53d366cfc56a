package core_test

import (
	"math"
	"testing"

	. "repro/internal/core"
	"repro/internal/stream"
)

// TestRunStepsFitInt32: the Recorder stores a step in 32 bits, so a run
// whose step bound (horizon + link delay + delay + the steps draining the
// stream takes, plus slack) passes math.MaxInt32 is refused up front, by
// Runner.Components and by Simulate; a bound of exactly math.MaxInt32 is
// accepted.
func TestRunStepsFitInt32(t *testing.T) {
	// 2^30 bytes at rate 1: draining takes 2^30+1 steps, and the bound is
	// 2^30 + 9 + D.
	st, err := stream.NewBuilder().AddRun(0, 1<<18, 1<<12, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	fits := math.MaxInt32 - (1<<30 + 9)
	cfg := Config{ServerBuffer: 1 << 12, ClientBuffer: 1 << 12, Rate: 1, Delay: fits}
	if _, _, _, err := NewRunner().Components(st, cfg); err != nil {
		t.Fatalf("a step bound of exactly MaxInt32 refused: %v", err)
	}
	cfg.Delay++
	if _, _, _, err := NewRunner().Components(st, cfg); err == nil {
		t.Fatal("Components accepted a run whose steps overflow 32 bits")
	}
	if _, err := Simulate(st, cfg); err == nil {
		t.Fatal("Simulate accepted a run whose steps overflow 32 bits")
	}
	big, err := stream.NewBuilder().AddRun(0, 1<<19, 1<<12, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(big, Config{ServerBuffer: 1 << 12, Rate: 1}); err == nil {
		t.Fatal("Simulate accepted 2^31 bytes at rate 1")
	}
}
