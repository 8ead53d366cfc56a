// Package errlossdata seeds dropped-error and missing-write-deadline
// violations; the analyzer's test adds this package to errloss.Scope.
package errlossdata

import "time"

// conn is the structural shape of net.Conn's write half; declared locally
// so the testdata stays stdlib-only.
type conn interface {
	Write(p []byte) (int, error)
	SetWriteDeadline(t time.Time) error
	Close() error
}

type plainWriter interface {
	Write(p []byte) (int, error)
}

func doClose(c conn) {
	c.Close()       // want `c\.Close returns an error that is silently dropped`
	_ = c.Close()   // ok: explicit discard
	defer c.Close() // ok: deferred cleanup is exempt
}

func goDrop(c conn) {
	go c.Close() // want `c\.Close returns an error that is silently dropped`
}

func write(c conn, p []byte) error {
	if err := c.SetWriteDeadline(time.Time{}.Add(time.Second)); err != nil {
		return err
	}
	_, err := c.Write(p) // ok: deadline armed above
	return err
}

func writeNoDeadline(c conn, p []byte) error {
	_, err := c.Write(p) // want `write to c without arming SetWriteDeadline`
	return err
}

func plainOK(w plainWriter, p []byte) error {
	_, err := w.Write(p) // ok: not deadline-capable
	return err
}

// armOnDeadBranch: the arm sits on a branch that returns, so no path
// carries it to the write (the old position-based check missed this).
func armOnDeadBranch(c conn, p []byte, bail bool) error {
	if bail {
		if err := c.SetWriteDeadline(time.Time{}.Add(time.Second)); err != nil {
			return err
		}
		return nil
	}
	_, err := c.Write(p) // want `write to c without arming SetWriteDeadline`
	return err
}

// armMayReach: an arm on one path into the write suffices (a writer
// may arm conditionally, once per tick).
func armMayReach(c conn, p []byte, stale bool) error {
	if stale {
		if err := c.SetWriteDeadline(time.Time{}.Add(time.Second)); err != nil {
			return err
		}
	}
	_, err := c.Write(p) // ok: armed on the stale path, may-reach
	return err
}

// armInLoop: arming on a previous iteration reaches later writes through
// the loop back edge.
func armInLoop(c conn, chunks [][]byte) error {
	for i, chunk := range chunks {
		if i == 0 {
			if err := c.SetWriteDeadline(time.Time{}.Add(time.Second)); err != nil {
				return err
			}
		}
		if _, err := c.Write(chunk); err != nil { // ok: armed before first write, carried by the back edge
			return err
		}
	}
	return nil
}

// closureNeedsOwnArm: a deadline armed outside does not excuse a write
// inside a function literal, which may run later or elsewhere.
func closureNeedsOwnArm(c conn, p []byte) func() {
	_ = c.SetWriteDeadline(time.Time{}.Add(time.Second))
	return func() {
		_, _ = c.Write(p) // want `write to c without arming SetWriteDeadline`
	}
}

// relayFlush mirrors the front tier's relay fallback flushing a pending
// span to the client: the write's error is the session's fate — dropping
// it leaves a dead session spinning in the relay loop.
func relayFlush(c conn, pend []byte) {
	if err := c.SetWriteDeadline(time.Time{}.Add(time.Second)); err != nil {
		return
	}
	c.Write(pend) // want `c\.Write returns an error that is silently dropped`
}

// relayFlushHandled is the sanctioned shape: deadline armed, error
// decides the session.
func relayFlushHandled(c conn, pend []byte) error {
	if err := c.SetWriteDeadline(time.Time{}.Add(time.Second)); err != nil {
		return err
	}
	if _, err := c.Write(pend); err != nil {
		return err
	}
	return nil
}
