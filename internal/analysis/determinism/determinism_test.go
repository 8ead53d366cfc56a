package determinism

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	old := Scope
	Scope = append(append([]string(nil), old...), "determscope")
	defer func() { Scope = old }()
	analysistest.Run(t, analysistest.TestData(), Analyzer, "determscope")
}

// TestWallClock covers the clock rule on its own: wall-clock reads on
// //smoothvet:noalloc paths, with no package in Scope and no
// deterministic root.
func TestWallClock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), Analyzer, "clockscope")
}
