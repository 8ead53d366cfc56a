//go:build linux

package reactor

import (
	"fmt"
	"io"
	"net"
	"syscall"
	"time"
)

// Poller wraps one epoll set. All sockets the runtime hands an engine are
// already non-blocking, so a shard reads and writes them directly (Read,
// Write) and lets epoll say when that is worthwhile. A nil Poller watches
// nothing: Add, Mod, Del and Close do nothing on it.
type Poller struct {
	epfd   int
	raw    []syscall.EpollEvent
	events []Event
}

// NewPoller creates an epoll set.
func NewPoller() (*Poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("reactor: epoll_create: %w", err)
	}
	return &Poller{epfd: epfd, raw: make([]syscall.EpollEvent, maxEvents), events: make([]Event, 0, maxEvents)}, nil
}

func (p *Poller) ctl(op, fd int, events uint32) error {
	if p == nil {
		return nil
	}
	ev := syscall.EpollEvent{Events: events, Fd: int32(fd)}
	return syscall.EpollCtl(p.epfd, op, fd, &ev)
}

// Add starts watching fd, level-triggered, for events.
func (p *Poller) Add(fd int, events uint32) error { return p.ctl(syscall.EPOLL_CTL_ADD, fd, events) }

// Mod replaces the events a watched fd is watched for.
func (p *Poller) Mod(fd int, events uint32) error { return p.ctl(syscall.EPOLL_CTL_MOD, fd, events) }

// Del stops watching fd.
func (p *Poller) Del(fd int) error { return p.ctl(syscall.EPOLL_CTL_DEL, fd, 0) }

// Wait blocks for at most waitMs and returns the ready fds in a slice the
// next Wait reuses; on an epoll error other than EINTR it returns none, so
// the wake still admits, sweeps and notices closing.
//
//smoothvet:noalloc
func (p *Poller) Wait() []Event {
	n, err := syscall.EpollWait(p.epfd, p.raw, waitMs)
	for err == syscall.EINTR {
		n, err = syscall.EpollWait(p.epfd, p.raw, waitMs)
	}
	p.events = p.events[:0]
	for i := 0; i < n; i++ {
		p.events = append(p.events, Event{Fd: p.raw[i].Fd, Events: p.raw[i].Events})
	}
	return p.events
}

// nap sleeps the calling thread for d with nanosleep(2), resumed on EINTR
// (the runtime's preemption signal): the loop's goroutine stays on its
// thread, and the kernel, not the runtime's timer wheel, bounds the nap.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// Close releases the epoll set.
func (p *Poller) Close() {
	if p != nil && p.epfd >= 0 {
		_ = syscall.Close(p.epfd)
		p.epfd = -1
	}
}

// Read reads what fd holds into p, which must not be empty. EINTR is
// retried; a socket with nothing to read yet (EAGAIN) returns 0 and no
// error; end of stream returns io.EOF.
//
//smoothvet:noalloc
func Read(fd int, p []byte) (int, error) {
	for {
		n, err := syscall.Read(fd, p)
		switch {
		case n > 0:
			return n, nil
		case err == nil:
			return 0, io.EOF
		case err == syscall.EAGAIN:
			return 0, nil
		case err != syscall.EINTR:
			return 0, err
		}
	}
}

// Write writes as much of p to fd as its send buffer takes. EINTR is
// retried; a full buffer (EAGAIN) returns 0 and no error, so a short count
// is never an error.
//
//smoothvet:noalloc
func Write(fd int, p []byte) (int, error) {
	for {
		n, err := syscall.Write(fd, p)
		switch {
		case err == nil:
			return n, nil
		case err == syscall.EAGAIN:
			return 0, nil
		case err != syscall.EINTR:
			return 0, err
		}
	}
}

// Close closes fd. It is not retried on EINTR: Linux frees the descriptor
// before reporting it, so a retry could close one reused meanwhile.
func Close(fd int) error { return syscall.Close(fd) }

// Adopt makes the caller the one owner of tc's socket: it duplicates the
// descriptor (close-on-exec, and non-blocking like every socket the runtime
// opens) and closes tc, which takes the original out of the runtime's
// netpoller, so the socket lives in at most one epoll set — the engine's.
// The peer sees nothing: the socket stays open through the duplicate until
// the caller's Close. On error the caller still owns tc.
func Adopt(tc *net.TCPConn) (int, error) {
	rc, err := tc.SyscallConn()
	if err != nil {
		return -1, fmt.Errorf("reactor: raw conn: %w", err)
	}
	fd, errno := -1, syscall.Errno(0)
	if err := rc.Control(func(f uintptr) {
		r, _, e := syscall.Syscall(syscall.SYS_FCNTL, f, syscall.F_DUPFD_CLOEXEC, 0)
		fd, errno = int(r), e
	}); err != nil {
		return -1, fmt.Errorf("reactor: conn fd: %w", err)
	}
	if errno != 0 {
		return -1, fmt.Errorf("reactor: dup: %w", errno)
	}
	if err := tc.Close(); err != nil {
		_ = syscall.Close(fd)
		return -1, fmt.Errorf("reactor: releasing conn: %w", err)
	}
	return fd, nil
}
