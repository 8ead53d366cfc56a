package main

import (
	"strings"
	"testing"

	"repro/internal/cli"
)

func TestDocumentedFlags(t *testing.T) {
	for _, err := range cli.CheckDocs("../..", "provision", run) {
		t.Error(err)
	}
}

// TestRun checks that the operator's inputs reach the menu.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-profile", "movie", "-loss-target", "0.05", "-capacity-factor", "4", "-eps", "0.01"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"R/mean @ loss<=", "0.05", "(4.0 x mean)", "overflow <= 0.01"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if err := run([]string{"-profile", "bogus"}, &out); err == nil {
		t.Error("bogus profile accepted")
	}
	if err := run([]string{"-trace", "/nonexistent/trace.txt"}, &out); err == nil {
		t.Error("missing trace file accepted")
	}
}
