package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

func TestDocumentedFlags(t *testing.T) {
	for _, err := range cli.CheckDocs("../..", "tracegen", run) {
		t.Error(err)
	}
}

// TestDescribeTrace generates a profile's trace into a file and describes
// it back.
func TestDescribeTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "clip.txt")
	var out strings.Builder
	if err := run([]string{"-profile", "sports", "-o", path}, &out); err != nil || out.Len() != 0 {
		t.Fatalf("generate: %v, %q on stdout", err, out.String())
	}
	if err := run([]string{"-describe", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "frames:      2000") || !strings.Contains(out.String(), "type I:") {
		t.Errorf("description:\n%s", out.String())
	}
	if err := run([]string{"-describe", filepath.Join(dir, "missing.txt")}, &out); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-describe", bad}, &out); err == nil {
		t.Error("malformed trace accepted")
	}
}
