package main

import (
	"io"
	"testing"

	"repro/internal/cli"
)

func TestDocumentedFlags(t *testing.T) {
	for _, err := range cli.CheckDocs("../..", "smoothlb", run) {
		t.Error(err)
	}
}

func TestBackendsRejectsEmptyEntry(t *testing.T) {
	if err := run([]string{"-backends", "a:1, ,b:2"}, io.Discard); err == nil {
		t.Error("-backends with an empty entry accepted")
	}
}
