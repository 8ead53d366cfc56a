//go:build !linux

package reactor

import (
	"errors"
	"net"
	"time"
)

// The reactor needs epoll; elsewhere NewPoller fails, so an engine's New
// does, and the rest of this file only keeps the package compiling (the
// socket-free paths — Wake with chosen events, the engines' decode and
// accounting — still run on any platform).

var errNoEpoll = errors.New("reactor: the shard reactor requires linux (epoll)")

type Poller struct{}

func NewPoller() (*Poller, error) { return nil, errNoEpoll }

func (p *Poller) Add(fd int, events uint32) error { return nil }
func (p *Poller) Mod(fd int, events uint32) error { return nil }
func (p *Poller) Del(fd int) error                { return nil }
func (p *Poller) Wait() []Event                   { return nil }
func (p *Poller) Close()                          {}

func nap(d time.Duration) { time.Sleep(d) }

func Adopt(tc *net.TCPConn) (int, error) { return -1, errNoEpoll }

func Read(fd int, p []byte) (int, error)  { return 0, errNoEpoll }
func Write(fd int, p []byte) (int, error) { return 0, errNoEpoll }
func Close(fd int) error                  { return errNoEpoll }
