// Package cli holds what the commands under cmd/ share: the wrapper that
// turns a command's run seam into a process, the accept-and-drain
// lifecycle of the two daemons (smoothd and smoothlb), and the check that
// the command lines the documentation shows still parse.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// Run is a command's testable seam: it parses args and writes its report
// to stdout.
type Run func(args []string, stdout io.Writer) error

// Main runs a command on the process arguments. An error goes to stderr
// and exits 1; -h exits 0 after the flag package has printed the usage.
func Main(name string, run Run) {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// List splits a comma-separated flag value into its entries, each trimmed
// of the spaces around it. Empty entries stay: in a positional list
// (smoothlb -backend-metrics) an empty entry holds its backend's place.
func List(s string) []string {
	parts := strings.Split(s, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

// Engine is the serving surface serve.Engine and lb.Engine share.
type Engine interface {
	Handle(conn net.Conn) error
	Drain(timeout time.Duration) bool
	Close()
}

// DrainBudget bounds how long a daemon waits for in-flight sessions once
// it stops accepting.
const DrainBudget = 10 * time.Second

// Serve accepts connections on ln and runs each one's Handle on its own
// goroutine, since the handshake read blocks, until SIGINT or SIGTERM
// arrives or done fires. It then stops accepting, waits up to DrainBudget
// for in-flight sessions and closes eng, which aborts the stragglers.
func Serve(name string, ln net.Listener, eng Engine, done <-chan struct{}) {
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			conn, err := ln.Accept()
			if err != nil {
				if !errors.Is(err, net.ErrClosed) {
					log.Printf("%s: accept: %v", name, err)
				}
				return
			}
			go func() {
				if err := eng.Handle(conn); err != nil {
					log.Printf("%s: %v", name, err)
				}
			}()
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		log.Printf("%s: %v: stopping accept, draining sessions (budget %v)", name, s, DrainBudget)
	case <-done:
	}
	_ = ln.Close()
	<-accepting
	drained := eng.Drain(DrainBudget)
	eng.Close()
	if drained {
		log.Printf("%s: drained cleanly, bye", name)
	} else {
		log.Printf("%s: drain budget exceeded, aborting in-flight sessions", name)
	}
}
