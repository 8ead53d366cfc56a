package loadgen

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/netstream"
	"repro/internal/stream"
)

// ---------------------------------------------------------------------------
// Socket-free density benchmark: the per-step client hot path.
// ---------------------------------------------------------------------------

// benchSpans records a real sender's wire output split at step boundaries:
// span k holds exactly the bytes the server writes in model step k, which
// is what one epoll wake reads from a healthy socket.
func benchSpans(tb testing.TB, frames int) (spans [][]byte, delay int, stepNanos int64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	b := stream.NewBuilder()
	for f := 0; f < frames; f++ {
		b.Add(f, 30+rng.Intn(60), 1)
	}
	st := b.MustBuild()
	rate := st.TotalBytes()/frames + 1
	var buf bytes.Buffer
	snd, err := netstream.NewSender(&buf, netstream.SenderConfig{ServerBuffer: 4 * rate, Rate: rate})
	if err != nil {
		tb.Fatal(err)
	}
	payload := make([]byte, st.MaxSliceSize())
	prev := 0
	mark := func() {
		spans = append(spans, buf.Bytes()[prev:buf.Len()])
		prev = buf.Len()
	}
	var offered []netstream.Offered
	for step := 0; step <= st.Horizon(); step++ {
		offered = offered[:0]
		for _, r := range st.RunsAt(step) {
			for id := r.First; id < r.End(); id++ {
				offered = append(offered, netstream.Offered{Slice: r.Slice(id), Payload: payload[:r.Size]})
			}
		}
		if _, err := snd.Tick(offered); err != nil {
			tb.Fatal(err)
		}
		mark()
	}
	for snd.Backlog() > 0 {
		if _, err := snd.Tick(nil); err != nil {
			tb.Fatal(err)
		}
		mark()
	}
	if err := netstream.WriteEnd(&buf); err != nil {
		tb.Fatal(err)
	}
	mark()
	return spans, snd.Delay(), int64(time.Millisecond)
}

func resetBenchSession(s *session, delay int) {
	s.anchored, s.refined, s.nEarly = false, false, 0
	s.rebase = 0
	s.pending = s.pending[:0]
	s.ended = false
	s.bytes, s.msgs = 0, 0
	s.maxStep = -1
	s.digest = fnvOffset64
	s.win.Reset(delay, 1)
}

// BenchmarkLoadgenStep measures one model step of the client engine over N
// sessions with the sockets factored out: every session is fed the span of
// bytes a real sender emits in that step, exercising tail carry, framing,
// decode, lag recording and the receive window. One op = one step across
// all sessions. The steady state must not allocate — this is the path that
// has to hold at 100k sessions, and it is pinned at exactly zero in
// scripts/verify.sh.
func BenchmarkLoadgenStep(b *testing.B) {
	spans, delay, stepNanos := benchSpans(b, 24)
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("sessions_%dk", n/1000), func(b *testing.B) {
			eng := &Engine{cfg: Config{}, base: time.Now()}
			sh := newShardCore(eng, 0)
			sessions := make([]*session, n)
			for i := range sessions {
				s := &session{idx: i, fd: -1, delay: delay, stepNanos: stepNanos, start: time.Now()}
				resetBenchSession(s, delay)
				sessions[i] = s
			}
			feedStep := func(k int) {
				now := int64(k) * stepNanos
				span := spans[k]
				for _, s := range sessions {
					if err := sh.feed(s, span, now); err != nil {
						b.Fatal(err)
					}
				}
			}
			// One full clip as warmup: pending buffers, ring sizes and the
			// shard histogram reach their steady state.
			for k := range spans {
				feedStep(k)
			}
			for _, s := range sessions {
				resetBenchSession(s, delay)
			}
			bytesPerStep := 0
			for _, sp := range spans {
				bytesPerStep += len(sp)
			}
			b.SetBytes(int64(n * bytesPerStep / len(spans)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(spans)
				feedStep(k)
				if k == len(spans)-1 {
					for _, s := range sessions {
						resetBenchSession(s, delay)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// End-to-end loopback benchmark: real serve.Engine, real sockets.
// ---------------------------------------------------------------------------

// TestLoopbackServer is not a test: it is the server half of
// BenchmarkLoopback, run in a child process (re-exec of the test binary)
// so the 20k-per-process fd ceiling bounds client and server separately.
// It prints "LISTEN <addr>" once ready and exits when stdin closes.
func TestLoopbackServer(t *testing.T) {
	if os.Getenv("LOOPBACK_SERVER") != "1" {
		t.Skip("server half of BenchmarkLoopback; set LOOPBACK_SERVER=1")
	}
	addr := startServer(t, 24, 2*time.Millisecond, 1.1)
	fmt.Printf("LISTEN %s\n", addr)
	_, _ = bufio.NewReader(os.Stdin).ReadString('\n') // block until the parent hangs up
}

// startServerProcess re-execs the test binary as a loopback server and
// returns its address plus a stop function.
func startServerProcess(b *testing.B) (string, func()) {
	b.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestLoopbackServer$", "-test.v")
	cmd.Env = append(os.Environ(), "LOOPBACK_SERVER=1")
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
		stdin.Close()
		_ = cmd.Wait()
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "LISTEN "); ok {
			return rest, stop
		}
	}
	stop()
	b.Fatalf("loopback server produced no LISTEN line (scan err: %v)", sc.Err())
	return "", nil
}

// BenchmarkLoopback drives N complete sessions through a real serving
// engine (child process) and the real client engine over loopback TCP —
// the end-to-end capacity measurement. One op = one full wave of N
// sessions: dial, handshake, stream, play out, account. Waves are capped
// at 12500 concurrent sessions to stay under the per-process fd ceiling;
// the 100k point runs 8 such waves and is gated behind LOOPBACK_100K=1
// because it takes minutes on one core.
func BenchmarkLoopback(b *testing.B) {
	if runtime.GOOS != "linux" {
		b.Skip("loadgen reactor requires linux")
	}
	const maxWave = 12_500
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("sessions_%dk", n/1000), func(b *testing.B) {
			if n > 2*maxWave && os.Getenv("LOOPBACK_100K") != "1" {
				b.Skip("set LOOPBACK_100K=1 to run the multi-wave 100k point")
			}
			addr, stop := startServerProcess(b)
			defer stop()
			eng, err := New(Config{Addrs: []string{addr}, Delay: 8, Dialers: 128})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.ReportAllocs()
			b.ResetTimer()
			var last Report
			for i := 0; i < b.N; i++ {
				var elapsed time.Duration
				for left := n; left > 0; {
					wave := left
					if wave > maxWave {
						wave = maxWave
					}
					rep, err := eng.Run(wave)
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
						rep.Lag.Merge(last.Lag) // cumulative quantiles across waves
					}
					last = rep
					left -= wave
				}
				b.ReportMetric(float64(n)/last.Elapsed.Seconds(), "sessions/s")
				b.ReportMetric(float64(last.Lag.Quantile(0.99)), "p99-µs")
				b.ReportMetric(float64(last.Lag.Quantile(0.999)), "p99.9-µs")
			}
		})
	}
}
