package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

func TestDocumentedFlags(t *testing.T) {
	for _, err := range cli.CheckDocs("../..", "experiments", run) {
		t.Error(err)
	}
}

// TestRun runs one experiment at quick scale with a CSV directory and a
// plot.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-quick", "-run", "fig2", "-csv", dir, "-plot"}, &out); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil || len(csv) == 0 {
		t.Fatalf("fig2.csv: %v", err)
	}
	if !strings.Contains(out.String(), "# wrote") {
		t.Errorf("output:\n%s", out.String())
	}
	if err := run([]string{"-run", "bogus"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
}
