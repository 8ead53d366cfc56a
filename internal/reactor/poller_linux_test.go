//go:build linux

package reactor

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestEventBitsMatchEpoll: the portable constants are epoll's.
func TestEventBitsMatchEpoll(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uint32
	}{
		{"In", In, syscall.EPOLLIN}, {"Out", Out, syscall.EPOLLOUT}, {"Err", Err, syscall.EPOLLERR},
		{"Hup", Hup, syscall.EPOLLHUP}, {"RdHup", RdHup, syscall.EPOLLRDHUP},
	} {
		if c.got != c.want {
			t.Errorf("%s = %#x, epoll has %#x", c.name, c.got, c.want)
		}
	}
}

// socketPair returns the two ends of a connected, non-blocking unix stream
// socket pair, closed when the test ends.
func socketPair(t *testing.T) (a, b int) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = Close(fds[0])
		_ = Close(fds[1])
	})
	return fds[0], fds[1]
}

// TestPollerAndIO runs the linux half against a socket pair: a watched fd
// turns up in Wait when readable and not after Del, Mod changes what it is
// watched for, Read and Write keep the one errno rule (an empty socket
// reads 0 and no error, a full one takes 0 and no error, end of stream is
// io.EOF, anything else is the errno), and a nil Poller ignores
// everything but Wait.
func TestPollerAndIO(t *testing.T) {
	p, err := NewPoller()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	a, b := socketPair(t)
	if err := p.Add(a, In); err != nil {
		t.Fatal(err)
	}
	if evs := p.Wait(); len(evs) != 0 {
		t.Fatalf("idle set reported %v", evs)
	}
	buf := make([]byte, 16)
	if n, err := Read(a, buf); n != 0 || err != nil {
		t.Fatalf("Read of an empty socket: %d, %v, want 0, nil", n, err)
	}
	if n, err := Write(b, []byte("smooth")); n != 6 || err != nil {
		t.Fatalf("Write: %d, %v", n, err)
	}
	if evs := p.Wait(); len(evs) != 1 || int(evs[0].Fd) != a || evs[0].Events&In == 0 {
		t.Fatalf("readable socket reported %v", evs)
	}
	if err := p.Mod(a, RdHup); err != nil {
		t.Fatal(err)
	}
	if evs := p.Wait(); len(evs) != 0 {
		t.Fatalf("after Mod to RdHup: %v", evs)
	}
	if n, err := Read(a, buf); string(buf[:n]) != "smooth" || err != nil {
		t.Fatalf("Read: %q, %v", buf[:n], err)
	}

	// Fill a until its peer's buffers are full: the last Write takes 0.
	big := make([]byte, 64<<10)
	for i := 0; ; i++ {
		n, err := Write(a, big)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if i > 1000 {
			t.Fatal("a socket pair took 64 MiB without filling")
		}
	}
	if err := syscall.Shutdown(b, syscall.SHUT_RDWR); err != nil {
		t.Fatal(err)
	}
	if n, err := Write(a, big); n != 0 || err != syscall.EPIPE {
		t.Errorf("Write to a shut-down peer: %d, %v, want 0, EPIPE", n, err)
	}
	if n, err := Read(a, buf); n != 0 || err != io.EOF {
		t.Errorf("Read at end of stream: %d, %v, want 0, io.EOF", n, err)
	}
	if n, err := Read(-1, buf); n != 0 || err != syscall.EBADF {
		t.Errorf("Read of a bad fd: %d, %v, want 0, EBADF", n, err)
	}
	if err := p.Del(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Del(a); err == nil {
		t.Error("Del of an unwatched fd succeeded")
	}

	var none *Poller
	if none.Add(a, In) != nil || none.Mod(a, In) != nil || none.Del(a) != nil {
		t.Error("nil Poller returned an error")
	}
	none.Close()
}

// epollWatchers counts the epoll sets in this process that watch the file
// with inode ino, from the "tfd: ... ino:<hex>" lines of each eventpoll
// fd's /proc/self/fdinfo entry.
func epollWatchers(t *testing.T, ino uint64) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(" ino:%x ", ino)
	n := 0
	for _, ent := range ents {
		if link, _ := os.Readlink("/proc/self/fd/" + ent.Name()); link != "anon_inode:[eventpoll]" {
			continue
		}
		info, err := os.ReadFile("/proc/self/fdinfo/" + ent.Name())
		if err != nil {
			continue // the directory read's own fd, or one closed since
		}
		for _, line := range strings.Split(string(info), "\n") {
			if strings.HasPrefix(line, "tfd:") && strings.Contains(line+" ", want) {
				n++
			}
		}
	}
	return n
}

// TestAdopt: the adopted fd is close-on-exec and non-blocking, the conn it
// came from is closed and no epoll set watches the socket any more (the
// runtime's dropped it), the peer sees neither FIN nor RST, and bytes
// still flow both ways until the fd is closed.
func TestAdopt(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	tc := conn.(*net.TCPConn)
	var st syscall.Stat_t
	rc, _ := tc.SyscallConn()
	if err := rc.Control(func(fd uintptr) { err = syscall.Fstat(int(fd), &st) }); err != nil {
		t.Fatal(err)
	}
	if n := epollWatchers(t, st.Ino); n != 1 {
		t.Fatalf("a fresh conn's socket is in %d epoll sets, want the runtime's 1", n)
	}

	fd, err := Adopt(tc)
	if err != nil {
		t.Fatal(err)
	}
	owned := true
	defer func() {
		if owned {
			_ = syscall.Close(fd)
		}
	}()
	if flags, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_GETFD, 0); e != 0 || flags&syscall.FD_CLOEXEC == 0 {
		t.Errorf("fd flags %#x (errno %v): not close-on-exec", flags, e)
	}
	if flags, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_GETFL, 0); e != 0 || flags&syscall.O_NONBLOCK == 0 {
		t.Errorf("file flags %#x (errno %v): blocking", flags, e)
	}
	if _, err := conn.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Errorf("write on the adopted conn: %v, want net.ErrClosed", err)
	}
	if n := epollWatchers(t, st.Ino); n != 0 {
		t.Fatalf("the adopted socket is still in %d epoll sets", n)
	}
	p, err := NewPoller()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Add(fd, In); err != nil {
		t.Fatal(err)
	}
	if n := epollWatchers(t, st.Ino); n != 1 {
		t.Fatalf("the adopted socket is in %d epoll sets, want the engine's 1", n)
	}

	// Neither FIN nor RST reached the peer: its read times out.
	buf := make([]byte, 16)
	_ = peer.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := peer.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("peer read %d bytes, err %v after the conn closed: want a timeout", n, err)
	}
	_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := syscall.Write(fd, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if n, err := peer.Read(buf); err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("peer read %q, %v", buf[:n], err)
	}
	if _, err := peer.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(p.Wait()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the adopted fd never turned readable")
		}
	}
	if n, err := syscall.Read(fd, buf); err != nil || !bytes.Equal(buf[:n], []byte("pong")) {
		t.Fatalf("adopted fd read %q, %v", buf[:n], err)
	}
	owned = false
	if err := syscall.Close(fd); err != nil {
		t.Fatal(err)
	}
	if n, err := peer.Read(buf); n != 0 || err == nil {
		t.Fatalf("peer read %d bytes, err %v after the fd closed: want EOF", n, err)
	}
	if _, err := Adopt(tc); err == nil {
		t.Error("Adopt of a closed conn succeeded")
	}
}

// BenchmarkLoopbackWriteRead measures the floor under every message the
// engines move: one 100 B write(2) on an adopted end of a loopback TCP
// pair and one read(2) of it on the other end, round-robin over 1000
// pairs, with no epoll anywhere. The getppid variant is a bare syscall
// through the same runtime entry and exit, so the ratio of the two bounds
// what saving syscall entries alone (batching them) can gain per message.
func BenchmarkLoopbackWriteRead(b *testing.B) {
	const pairs = 1000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	var fds []int
	defer func() {
		for _, fd := range fds {
			_ = syscall.Close(fd)
		}
	}()
	for i := 0; i < pairs; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		peer, err := ln.Accept()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []net.Conn{conn, peer} {
			fd, err := Adopt(c.(*net.TCPConn))
			if err != nil {
				b.Fatal(err)
			}
			fds = append(fds, fd)
		}
	}
	msg, buf := make([]byte, 100), make([]byte, 512)
	b.Run("pair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, r := fds[2*(i%pairs)], fds[2*(i%pairs)+1]
			if n, err := syscall.Write(w, msg); n != len(msg) || err != nil {
				b.Fatalf("write %d bytes: %v", n, err)
			}
			for got := 0; got < len(msg); {
				n, err := syscall.Read(r, buf)
				if err == syscall.EAGAIN {
					continue // not yet through the loopback device
				}
				if err != nil || n == 0 {
					b.Fatalf("read %d bytes: %v", n, err)
				}
				got += n
			}
		}
	})
	b.Run("getppid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			syscall.Syscall(syscall.SYS_GETPPID, 0, 0, 0)
		}
	})
}

// stampedRun is a harness whose Ready also notes how many clock readings
// Run took since the last sweep (Expired runs after dispatch in every
// wake, so that is the readings of the wake serving the fd) and then
// closes the loop, so Run returns after the wake that served the fd.
type stampedRun struct {
	*harness
	reads  int     // Now calls since the last Expired
	served []int   // reads, per Ready
	stamps []int64 // now, per Ready
}

func (r *stampedRun) Ready(s *sess, fd int, events uint32, now int64) {
	r.harness.Ready(s, fd, events, now)
	r.served = append(r.served, r.reads)
	r.stamps = append(r.stamps, now)
	r.closing.Store(true)
}

func (r *stampedRun) Expired(s *sess, now int64) error {
	r.reads = 0
	return r.harness.Expired(s, now)
}

// runOnReadableSocket runs a loop with a real Poller over one socket that
// is readable before Run starts, on a clock that advances by step at every
// reading, and returns what the wake that served the socket saw.
func runOnReadableSocket(t *testing.T, step int64) *stampedRun {
	t.Helper()
	p, err := NewPoller()
	if err != nil {
		t.Fatal(err)
	}
	r, w := socketPair(t)
	if err := p.Add(r, In); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(w, []byte("x")); err != nil {
		t.Fatal(err)
	}
	run := &stampedRun{harness: newHarness(0)}
	run.Handler = run
	run.Poller = p
	var clock int64
	run.Now = func() int64 {
		run.reads++
		clock += step
		return clock
	}
	run.Table.Add(&sess{fd: r}, r)
	run.Run() // Close in the closing wake releases p
	return run
}

// TestRunServesIdleWaitAtOnce: on an idle loop — its clock says the wait
// blocked for settle — one readable fd is dispatched by the first Wake,
// stamped when that wait returned, with no nap and no second Wait.
func TestRunServesIdleWaitAtOnce(t *testing.T) {
	run := runOnReadableSocket(t, int64(settle))
	if len(run.served) != 1 {
		t.Fatalf("the fd was served %d times, want once", len(run.served))
	}
	if run.served[0] != 2 || run.stamps[0] != 2*int64(settle) {
		t.Errorf("served after %d clock readings at stamp %d, want 2 (one wait) at %d",
			run.served[0], run.stamps[0], 2*int64(settle))
	}
}

// TestRunSettlesLoadedWait: on a loaded loop — its clock says the wait
// returned at once — Run naps, waits again, and the second wait still
// reports the fd (level-triggered: nothing is lost); the one Wake serves
// it with the second wait's stamp, and the nap took at least settle.
func TestRunSettlesLoadedWait(t *testing.T) {
	begin := time.Now()
	run := runOnReadableSocket(t, 0)
	if took := time.Since(begin); took < settle {
		t.Errorf("a loaded wake came back after %v, want a nap of settle (%v)", took, settle)
	}
	if len(run.served) != 1 || run.served[0] != 3 {
		t.Fatalf("served %d times after %v clock readings, want once after 3 (two waits)", len(run.served), run.served)
	}
	if got := run.reg.Snapshot(nil).Scalars[run.Wakes]; got != 1 {
		t.Errorf("%d wakes counted, want 1", got)
	}
}
