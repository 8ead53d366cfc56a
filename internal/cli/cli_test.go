package cli

import (
	"net"
	"slices"
	"testing"
	"time"
)

// fakeEngine records what the lifecycle asks of it.
type fakeEngine struct {
	handled chan net.Conn
	drained time.Duration
	closed  bool
}

func (e *fakeEngine) Handle(c net.Conn) error { e.handled <- c; return nil }

func (e *fakeEngine) Drain(timeout time.Duration) bool { e.drained = timeout; return true }

func (e *fakeEngine) Close() { e.closed = true }

// TestServe hands each connection to Handle, and when done fires stops
// accepting, drains for DrainBudget and closes the engine.
func TestServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eng := &fakeEngine{handled: make(chan net.Conn, 1)}
	done := make(chan struct{})
	served := make(chan struct{})
	go func() {
		Serve("test", ln, eng, done)
		close(served)
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case s := <-eng.handled:
		s.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("no Handle for an accepted connection")
	}
	close(done)
	<-served
	if eng.drained != DrainBudget || !eng.closed {
		t.Errorf("after done: drained for %v, closed %v; want %v and true", eng.drained, eng.closed, DrainBudget)
	}
	if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		c.Close()
		t.Error("still accepting after Serve returned")
	}
}

func TestList(t *testing.T) {
	got := List(" a:1 ,b:2,, ")
	if want := []string{"a:1", "b:2", "", ""}; !slices.Equal(got, want) {
		t.Errorf("List = %q, want %q", got, want)
	}
}
