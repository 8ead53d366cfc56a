//go:build linux

package reactor

import (
	"syscall"
	"testing"
)

// TestEventBitsMatchEpoll: the portable constants are epoll's.
func TestEventBitsMatchEpoll(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uint32
	}{
		{"In", In, syscall.EPOLLIN}, {"Out", Out, syscall.EPOLLOUT}, {"Err", Err, syscall.EPOLLERR},
		{"Hup", Hup, syscall.EPOLLHUP}, {"RdHup", RdHup, syscall.EPOLLRDHUP}, {"OneShot", OneShot, syscall.EPOLLONESHOT},
	} {
		if c.got != c.want {
			t.Errorf("%s = %#x, epoll has %#x", c.name, c.got, c.want)
		}
	}
}

// TestPollerSpliceAndPipe runs the linux half against pipes: a watched fd
// turns up in Wait when readable and not after Del, Mod changes what it is
// watched for, Splice moves the bytes from one pipe to the other and
// reports EAGAIN on an empty source, and a nil Poller ignores everything
// but Wait.
func TestPollerSpliceAndPipe(t *testing.T) {
	p, err := NewPoller()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srcR, srcW, err := Pipe()
	if err != nil {
		t.Fatal(err)
	}
	dstR, dstW, err := Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, fd := range []int{srcR, srcW, dstR, dstW} {
			_ = syscall.Close(fd)
		}
	}()
	if err := p.Add(srcR, In); err != nil {
		t.Fatal(err)
	}
	if evs := p.Wait(); len(evs) != 0 {
		t.Fatalf("idle set reported %v", evs)
	}
	if _, err := syscall.Write(srcW, []byte("smooth")); err != nil {
		t.Fatal(err)
	}
	if evs := p.Wait(); len(evs) != 1 || int(evs[0].Fd) != srcR || evs[0].Events&In == 0 {
		t.Fatalf("readable pipe reported %v", evs)
	}
	if err := p.Mod(srcR, Out); err != nil { // a read end is never writable
		t.Fatal(err)
	}
	if evs := p.Wait(); len(evs) != 0 {
		t.Fatalf("after Mod to Out: %v", evs)
	}
	if n, err := Splice(srcR, dstW, 1<<16); n != 6 || err != nil {
		t.Fatalf("Splice moved %d bytes, err %v", n, err)
	}
	if _, err := Splice(srcR, dstW, 1<<16); err != syscall.EAGAIN {
		t.Fatalf("Splice from an empty pipe: %v, want EAGAIN", err)
	}
	buf := make([]byte, 16)
	if n, _ := syscall.Read(dstR, buf); string(buf[:n]) != "smooth" {
		t.Fatalf("spliced %q", buf[:n])
	}
	if err := p.Del(srcR); err != nil {
		t.Fatal(err)
	}
	if err := p.Del(srcR); err == nil {
		t.Error("Del of an unwatched fd succeeded")
	}

	var none *Poller
	if none.Add(srcR, In) != nil || none.Mod(srcR, In) != nil || none.Del(srcR) != nil {
		t.Error("nil Poller returned an error")
	}
	none.Close()
}
