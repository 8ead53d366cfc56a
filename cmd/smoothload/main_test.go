package main

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
	"repro/internal/trace"
)

func TestDocumentedFlags(t *testing.T) {
	for _, err := range cli.CheckDocs("../..", "smoothload", run) {
		t.Error(err)
	}
}

// TestConnectList: -connect trims each address and drops empty entries, so
// " addr ," drives every session at addr, and a list of nothing is an error.
func TestConnectList(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("loadgen reactor requires linux")
	}
	gen := trace.DefaultGenConfig()
	gen.Frames = 40
	clip, err := trace.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(clip, trace.PaperWeights(), serve.Config{
		Rate: int(clip.AverageRate()) + 1, Shards: 1, StepDuration: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done, served := make(chan struct{}), make(chan struct{})
	go func() { cli.Serve("smoothd", ln, eng, done); close(served) }()
	defer func() { close(done); <-served }()

	var out bytes.Buffer
	if err := run([]string{"-connect", " " + ln.Addr().String() + " ,", "-sessions", "2"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if err := run([]string{"-connect", " , "}, io.Discard); err == nil {
		t.Error("-connect with no address accepted")
	}
}
