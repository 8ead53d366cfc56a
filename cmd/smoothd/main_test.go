package main

import (
	"testing"

	"repro/internal/cli"
)

func TestDocumentedFlags(t *testing.T) {
	for _, err := range cli.CheckDocs("../..", "smoothd", run) {
		t.Error(err)
	}
}
