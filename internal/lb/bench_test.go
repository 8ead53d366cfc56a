//go:build linux

package lb

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/reactor"
)

// ---------------------------------------------------------------------------
// Relay benchmark: the per-step copy hot path.
// ---------------------------------------------------------------------------

// BenchmarkLBRelayStep measures one relay step of the front tier with
// the TCP sockets replaced by unix socket pairs (the relay reads and
// writes them alike, with none of the TCP noise): a span of backend bytes
// enters the session's source, relay reads it into the shard buffer and
// writes it to the sink, and the bench drains the sink. One op = one step
// of one session, at 16 KiB and at the 64 B of a smoothbench message. The
// steady state must not allocate — this path has to hold at 10k relayed
// sessions per tier — and it is pinned at exactly 0 B/op, 0 allocs/op in
// scripts/verify.sh.
func BenchmarkLBRelayStep(b *testing.B) {
	for _, c := range []struct {
		name     string
		chunk    int
		sessions int
	}{
		{"sessions_1", 16 << 10, 1},
		{"sessions_1024", 16 << 10, 1024},
		{"sessions_1_msg_64B", 64, 1},
		{"sessions_1024_msg_64B", 64, 1024},
	} {
		b.Run(c.name, func(b *testing.B) {
			chunk, sessions := c.chunk, c.sessions
			e := relayEngine(b, 1, nil)
			sh, err := newShard(e, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer sh.Poller.Close()
			srcW := make([]int, sessions)
			sinkR := make([]int, sessions)
			for i := 0; i < sessions; i++ {
				bfd, sw := socketPair(b)
				cfd, kr := socketPair(b)
				s := &session{
					id:         uint64(i + 1),
					bfd:        bfd,
					cfd:        cfd,
					backendIdx: 0,
					backend:    e.backends[0],
				}
				sh.Table.Add(s, bfd, cfd)
				srcW[i], sinkR[i] = sw, kr
			}
			defer func() {
				b.StopTimer() // closing a thousand socket pairs is not a step
				for i := sessions - 1; i >= 0; i-- {
					sh.closeRelay(sh.Table.At(i))
					_ = reactor.Close(srcW[i])
					_ = reactor.Close(sinkR[i])
				}
			}()
			span := make([]byte, chunk)
			drain := make([]byte, chunk)
			step := func(i, now int) {
				s := sh.Table.At(i)
				if n, err := reactor.Write(srcW[i], span); n != chunk || err != nil {
					b.Fatalf("source took %d of %d bytes: %v", n, chunk, err)
				}
				sh.relay(s, int64(now))
				for got := 0; got < chunk; {
					n, err := reactor.Read(sinkR[i], drain[got:])
					if err != nil || n == 0 {
						b.Fatalf("sink read %d after %d of %d bytes: %v", n, got, chunk, err)
					}
					got += n
				}
			}
			// Warmup: anchor every session (the one-time EvFirstWrite
			// record) so the timed loop is pure steady state.
			for i := 0; i < sessions; i++ {
				step(i, 0)
			}
			b.SetBytes(int64(chunk))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i%sessions, i+1)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// End-to-end fleet benchmark: real backends (child processes), real tier.
// ---------------------------------------------------------------------------

// TestFleetBackend is not a test: it is one smoothd-shaped backend for
// BenchmarkFleetLoopback, run in a re-exec'd child process so the
// per-process fd ceiling bounds each tier separately. It prints
// "LISTEN <addr>" once ready and exits when stdin closes.
func TestFleetBackend(t *testing.T) {
	if os.Getenv("FLEET_BACKEND") != "1" {
		t.Skip("backend half of BenchmarkFleetLoopback; set FLEET_BACKEND=1")
	}
	addr := startBackend(t, 24, 2*time.Millisecond, 1.1)
	fmt.Printf("LISTEN %s\n", addr)
	_, _ = bufio.NewReader(os.Stdin).ReadString('\n') // block until the parent hangs up
}

// startBackendProcess re-execs the test binary as one fleet backend.
func startBackendProcess(b *testing.B) (string, func()) {
	b.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestFleetBackend$", "-test.v")
	cmd.Env = append(os.Environ(), "FLEET_BACKEND=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		b.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		b.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		b.Fatal(err)
	}
	stop := func() {
		_ = stdin.Close()
		_ = cmd.Wait()
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "LISTEN "); ok {
			return rest, stop
		}
	}
	stop()
	b.Fatalf("fleet backend produced no LISTEN line (scan err: %v)", sc.Err())
	return "", nil
}

// benchWave drives waves of n digest-free sessions at addrs and returns
// the cumulative report. Waves are capped so the bench process (loadgen
// socket + tier client and backend sockets = 3 fds per concurrent session
// when addrs is the tier) stays under the fd ceiling.
func benchWave(b *testing.B, gen *loadgen.Engine, n, maxWave int) loadgen.Report {
	b.Helper()
	var last loadgen.Report
	var elapsed time.Duration
	for left := n; left > 0; {
		wave := left
		if wave > maxWave {
			wave = maxWave
		}
		rep, err := gen.Run(wave)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed > 0 {
			b.Fatalf("wave of %d: %d failed (%d dial, %d handshake, %d mid-stream)",
				wave, rep.Failed, rep.DialFailed, rep.HandshakeFailed, rep.MidStreamFailed)
		}
		rep.Elapsed = elapsed + rep.Elapsed
		elapsed = rep.Elapsed
		if last.Lag != nil && left < n {
			rep.Lag.Merge(last.Lag)
		}
		last = rep
		left -= wave
	}
	return last
}

// BenchmarkFleetLoopback drives N complete sessions through the full
// fleet path — loadgen → in-process smoothlb tier → two re-exec'd
// backend processes — reporting sessions/s and the p99 step lag seen
// through the tier. One op = one full wave of N sessions through the tier.
// (The like-for-like direct-vs-tier comparison belongs to smoothbench's
// tier_paced/direct_paced workloads, not here.) The 10k point runs 2500-session waves to stay under
// the per-process fd ceiling (each concurrent tier session holds 3 fds
// in this process: loadgen socket, tier client and backend sockets).
func BenchmarkFleetLoopback(b *testing.B) {
	const maxWave = 2_500
	backendAddrs := make([]string, 2)
	for i := range backendAddrs {
		addr, stop := startBackendProcess(b)
		defer stop()
		backendAddrs[i] = addr
	}
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("sessions_%dk", n/1000), func(b *testing.B) {
			eng, err := New(Config{Backends: backendAddrs, PlaceWorkers: 64})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			var acceptWG sync.WaitGroup
			go func() {
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					acceptWG.Add(1)
					go func(c net.Conn) {
						defer acceptWG.Done()
						_ = eng.Handle(c)
					}(conn)
				}
			}()
			gen, err := loadgen.New(loadgen.Config{Addrs: []string{ln.Addr().String()}, Delay: 8, Dialers: 128})
			if err != nil {
				b.Fatal(err)
			}
			defer gen.Close()

			b.ReportAllocs()
			b.ResetTimer()
			var last loadgen.Report
			for i := 0; i < b.N; i++ {
				last = benchWave(b, gen, n, maxWave)
			}
			b.StopTimer()
			b.ReportMetric(float64(n)/last.Elapsed.Seconds(), "sessions/s")
			b.ReportMetric(float64(last.Lag.Quantile(0.99)), "lb-p99-µs")
		})
	}
}
