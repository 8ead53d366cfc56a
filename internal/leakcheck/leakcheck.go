// Package leakcheck is the socket engines' shared TestMain: it fails a
// test binary whose tests leave a descriptor open or a goroutine of the
// module's internal packages running. It reads /proc/self/fd, so only
// Linux test files call it.
package leakcheck

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests and exits non-zero when they fail or leak. Both
// checks are given a short settle: sessions on the far side of a socket
// end on their own goroutines a little after the test that ended them.
func Main(m *testing.M) {
	// The runtime opens its poller's descriptors at the first socket and
	// keeps them; open them before counting.
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		_ = ln.Close()
	}
	before := OpenFds()
	code := m.Run()
	if code == 0 {
		if leak := settledLeak(before); leak != "" {
			fmt.Fprintln(os.Stderr, "leak check:", leak)
			code = 1
		}
	}
	os.Exit(code)
}

// settledLeak waits up to 3 s for the process to hold before descriptors
// and no goroutine stopped in repro/internal/, and else describes what it
// still holds.
func settledLeak(before int) string {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var leak []string
		if n := OpenFds(); n > before {
			leak = append(leak, fmt.Sprintf("%d descriptors open, %d before the tests", n, before))
		}
		// The first goroutine in the dump is this one.
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")[1:] {
			if strings.Contains(g, "repro/internal/") {
				leak = append(leak, "goroutine still running:\n"+g)
			}
		}
		if len(leak) == 0 || time.Now().After(deadline) {
			return strings.Join(leak, "\n")
		}
	}
}

// OpenFds returns the number of descriptors the process holds open.
func OpenFds() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		panic(err)
	}
	return len(ents)
}
