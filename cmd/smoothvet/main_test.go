package main

import "testing"

// TestRegisteredAnalyzers pins the exact analyzer suite: adding or removing
// an analyzer must update this list (and DESIGN.md) deliberately.
func TestRegisteredAnalyzers(t *testing.T) {
	want := []string{
		"aliasretain", "determinism", "errloss",
		"hotpath", "pubimmut", "shardconfine",
	}
	got := analyzers()
	if len(got) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}
