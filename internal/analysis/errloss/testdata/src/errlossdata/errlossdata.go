// Package errlossdata seeds dropped-error violations; the analyzer's test
// adds this package to errloss.Scope.
package errlossdata

// conn is the write half of net.Conn; declared locally so the testdata
// stays stdlib-only.
type conn interface {
	Write(p []byte) (int, error)
	Close() error
}

func doClose(c conn) {
	c.Close()       // want `c\.Close returns an error that is silently dropped`
	_ = c.Close()   // ok: explicit discard
	defer c.Close() // ok: deferred cleanup is exempt
}

func goDrop(c conn) {
	go c.Close() // want `c\.Close returns an error that is silently dropped`
}

// relayFlush mirrors the front tier's relay fallback flushing a pending
// span to the client: the write's error is the session's fate — dropping
// it leaves a dead session spinning in the relay loop.
func relayFlush(c conn, pend []byte) {
	c.Write(pend) // want `c\.Write returns an error that is silently dropped`
}

// relayFlushHandled is the sanctioned shape: the error decides the session.
func relayFlushHandled(c conn, pend []byte) error {
	if _, err := c.Write(pend); err != nil {
		return err
	}
	return nil
}
