package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/trace"
)

func TestDocumentedFlags(t *testing.T) {
	for _, err := range cli.CheckDocs("../..", "smoothsim", run) {
		t.Error(err)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"taildrop", "headdrop", "greedy", "random"} {
		f, err := policyByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if f() == nil {
			t.Errorf("%s: nil policy", name)
		}
	}
	if _, err := policyByName("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

// TestLoadClipSynthetic checks that without -trace smoothsim runs on the
// synthetic default clip.
func TestLoadClipSynthetic(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-policy", "taildrop"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2000 frames") {
		t.Errorf("output lacks the synthetic clip:\n%s", out.String())
	}
}

// TestLoadClipFromFile checks that -trace reads the named file and that a
// missing one is an error.
func TestLoadClipFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "clip.txt")
	if err := os.WriteFile(path, []byte("0 I 10\n1 B 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-trace", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 frames") || !strings.Contains(out.String(), "max frame 10 units") {
		t.Errorf("output does not describe the file's clip:\n%s", out.String())
	}
	if err := run([]string{"-trace", filepath.Join(dir, "missing.txt")}, &out); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRun drives every flag: a trace file in, a congested whole-frame
// tail-drop run with the optimum and the timeline out.
func TestRun(t *testing.T) {
	cfg := trace.DefaultGenConfig()
	cfg.Frames = 200
	clip, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "clip.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := clip.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out strings.Builder
	if err := run([]string{"-trace", path, "-rate-factor", "0.9", "-buffer-multiple", "2",
		"-policy", "taildrop", "-slices", "frame", "-optimal", "-timeline"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"200 frames", "slices=frame", "taildrop", "optimal:", "online/optimal", "server occupancy"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if err := run([]string{"-slices", "bogus"}, &out); err == nil {
		t.Error("bogus slice mode accepted")
	}
}
