//go:build linux

package serve

import (
	"bytes"
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestByteBehindRowsRetryWithoutAllocating drives shard.step over rows
// whose fds are socketpairs with the smallest send buffer the kernel
// allows. The peers are read only every eighth tick, so rows go
// byte-behind (short writes, EAGAIN) and catch up on later ticks, well
// inside D. A tick must not allocate on that path, and every peer must
// end up with exactly the cohort's wire bytes, every session retired
// clean.
func TestByteBehindRowsRetryWithoutAllocating(t *testing.T) {
	const (
		sessions = 32
		delay    = 16
		every    = 8 // ticks between peer reads
	)
	clip := testClip(t, 200)
	var failed, retired int
	eng, err := newEngine(clip, trace.PaperWeights(), Config{
		Rate: 2 * int(clip.AverageRate()), Shards: 1, StepDuration: time.Millisecond, MaxDelay: delay,
		OnSessionDone: func(_ SessionStats, err error) {
			retired++
			if err != nil {
				failed++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	//smoothvet:transfer newEngine starts no shard clock: the test drives it
	sh := eng.shards[0]
	c, err := eng.cohortFor(delay, delay*eng.cfg.Rate)
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]int, sessions)
	got := make([][]byte, sessions)
	for i := range peers {
		fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := syscall.SetsockoptInt(fds[0], syscall.SOL_SOCKET, syscall.SO_SNDBUF, 1); err != nil {
			t.Fatal(err)
		}
		peers[i], got[i] = fds[1], make([]byte, 0, c.WireBytes())
		defer syscall.Close(fds[1])
		eng.active.Add(1)
		eng.sessWG.Add(1)
		sh.queue.Push(cohortRow{cohort: c, fd: fds[0], remote: fmt.Sprint(i)})
	}
	buf := make([]byte, 64<<10)
	read := func() {
		for i, fd := range peers {
			for {
				n, err := syscall.Read(fd, buf)
				if n <= 0 || err != nil {
					break
				}
				got[i] = append(got[i], buf[:n]...)
			}
		}
	}
	var tick int64
	behind := 0 // row-ticks spent byte-behind
	step := func() {
		tick++
		sh.step(tick)
		for i, cur := range sh.rows.cursors {
			if sh.rows.sent[i] < sh.rows.cohorts[i].off[cur] {
				behind++
			}
		}
		if tick%every == 0 {
			read()
		}
	}
	step() // admission and the first writes, off the measured path
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("a tick with byte-behind rows allocated %.1f times", n)
	}
	if behind == 0 {
		t.Fatal("no row ever went byte-behind: the send buffer is too large to exercise the retry")
	}
	for len(sh.rows.cursors) > 0 {
		step()
		if tick > int64(4*c.Steps()) {
			t.Fatalf("%d sessions still running at tick %d", len(sh.rows.cursors), tick)
		}
	}
	read()
	if failed != 0 || retired != sessions {
		t.Fatalf("%d of %d sessions retired, %d failed", retired, sessions, failed)
	}
	for i := range got {
		if !bytes.Equal(got[i], c.wire) {
			t.Fatalf("peer %d read %d bytes, the plan has %d", i, len(got[i]), c.WireBytes())
		}
	}
	t.Logf("%d row-ticks byte-behind over %d ticks", behind, tick)
}
