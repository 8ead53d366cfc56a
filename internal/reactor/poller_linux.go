//go:build linux

package reactor

import (
	"fmt"
	"net"
	"syscall"
	"time"
)

// Poller wraps one epoll set. All sockets the runtime hands an engine are
// already non-blocking, so a shard reads, writes and splices them directly
// and lets epoll say when that is worthwhile. A nil Poller watches nothing:
// Add, Mod, Del and Close do nothing on it.
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

// Pipe returns a non-blocking pipe pair for Splice to park bytes in.
func Pipe() (r, w int, err error) {
	var p [2]int
	if err := syscall.Pipe2(p[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		return -1, -1, fmt.Errorf("reactor: pipe2: %w", err)
	}
	return p[0], p[1], nil
}

// Splice moves up to max bytes from rfd to wfd inside the kernel without
// blocking; one of the two must be a pipe.
//
//smoothvet:noalloc
func Splice(rfd, wfd, max int) (int64, error) {
	const flags = 0x1 | 0x2 // SPLICE_F_MOVE | SPLICE_F_NONBLOCK
	return syscall.Splice(rfd, nil, wfd, nil, max, flags)
}

// Adopt makes the caller the one owner of tc's socket: it duplicates the
// descriptor (close-on-exec, and non-blocking like every socket the runtime
// opens) and closes tc, which takes the original out of the runtime's
// netpoller, so the socket lives in at most one epoll set — the engine's.
// The peer sees nothing: the socket stays open through the duplicate until
// the caller's syscall.Close. On error the caller still owns tc.
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
