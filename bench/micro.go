package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/loadgen"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
)

// microBudget is how long each micro-driver loops over its exported call.
const microBudget = 150 * time.Millisecond

// micro times fn, which performs ops operations per call, for microBudget
// after one untimed call, and returns nanoseconds per operation. The whole
// driver is one span.
func micro(tr *tracer, parent int32, name string, ops int, fn func() error) (float64, error) {
	id := tr.begin(name, parent)
	defer tr.end(id)
	if err := fn(); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < microBudget {
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		calls++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls*ops), nil
}

// runMicro drives single exported calls of every layer in isolation. The
// inputs depend on the seed only, never on the workload, so a traced run
// of any workload prints the same per-layer costs.
func runMicro(seed int64, tr *tracer, res *result) error {
	tr.scope(-1, true)
	root := tr.begin("micro", -1)
	defer tr.end(root)
	var firstErr error
	// drive runs one driver and stores its metric; after a failure the
	// remaining drivers are skipped, their inputs may be missing.
	drive := func(metric string, scale float64, ops int, fn func() error) {
		if firstErr != nil {
			return
		}
		ns, err := micro(tr, root, metric, ops, fn)
		firstErr = err
		res.set(metric, ns*scale)
	}
	const perMs = 1e-6

	// Simulation core: a paper-scale clip, byte slices, an under-provisioned
	// link (0.9 x the average rate, B = 4 frames) so the drop policy works.
	var clip *trace.Clip
	drive("trace.generate_ms", perMs, 1, func() (err error) {
		clip, err = genClip(simFrames, seed)
		return err
	})
	if firstErr != nil {
		return firstErr
	}
	weights := trace.PaperWeights()
	byteSt, err := trace.ByteSliceStream(clip, weights)
	if err != nil {
		return err
	}
	frameSt, err := trace.WholeFrameStream(clip, weights)
	if err != nil {
		return err
	}
	drive("stream.build_ms", perMs, 1, func() error {
		_, err := trace.ByteSliceStream(clip, weights)
		return err
	})
	rate := int(0.9 * clip.AverageRate())
	buffer := 4 * clip.MaxFrameSize() / rate * rate
	runner := core.NewRunner()
	for _, p := range []struct {
		name   string
		policy drop.Factory
	}{{"greedy", drop.Greedy}, {"taildrop", drop.TailDrop}} {
		cfg := core.Config{ServerBuffer: buffer, Rate: rate, Policy: p.policy}
		drive("core.sim_ns_per_slice."+p.name, 1, byteSt.Len(), func() error {
			_, err := runner.Run(byteSt, cfg)
			return err
		})
	}
	drive("offline.unit_ms", perMs, 1, func() error {
		_, err := offline.OptimalUnit(byteSt, buffer, rate)
		return err
	})
	drive("offline.frames_ms", perMs, 1, func() error {
		_, err := offline.OptimalFrames(frameSt, buffer, rate)
		return err
	})

	// Wire path: the recorded stream of one paced-workload session.
	short, err := genClip(netSpecs["direct_paced"].frames, seed)
	if err != nil {
		return err
	}
	ref, err := buildReference(short)
	if err != nil {
		return err
	}
	var wire bytes.Buffer
	drive("netstream.sender_tick_ns", 1, ref.ticks, func() error {
		wire.Reset()
		_, _, err := recordSender(&wire, ref.offers, ref.rate, ref.delay, ref.buffer)
		return err
	})
	enc := netstream.NewEncoder(io.Discard)
	drive("netstream.encode_ns_per_msg", 1, len(ref.msgs), func() error {
		step := uint32(0)
		for i := range ref.msgs {
			m := &ref.msgs[i]
			if m.step != step { // one flush per model step, as the sender does
				step = m.step
				if err := enc.Flush(); err != nil {
					return err
				}
			}
			if err := enc.PutData(&netstream.Data{
				SliceID: m.slice, Arrival: m.arrival, Size: m.size, SendStep: m.step, Offset: m.offset, Payload: m.payload,
			}); err != nil {
				return err
			}
		}
		return enc.Flush()
	})
	var rd bytes.Reader
	dec := netstream.NewDecoder(&rd)
	drive("netstream.decode_ns_per_msg", 1, len(ref.msgs), func() error {
		rd.Reset(ref.wire)
		for {
			m, err := dec.Next()
			if err != nil {
				return err
			}
			if m.End {
				return nil
			}
		}
	})
	var win core.RecvWindow
	drive("core.recvwindow_ns_per_msg", 1, len(ref.msgs), func() error {
		win.Reset(ref.delay, reorderSlack)
		for i := range ref.msgs {
			m := &ref.msgs[i]
			win.ResolveTo(int(m.step) - 1 - ref.delay)
			win.Ingest(int32(m.slice), int(m.arrival), int32(m.size), int32(len(m.payload)))
		}
		win.Finish()
		if win.Played() != ref.played {
			return fmt.Errorf("window played %d slices, reference %d", win.Played(), ref.played)
		}
		return nil
	})

	// Per-message taxes.
	samples := make([]int, len(clip.Frames))
	for i, f := range clip.Frames {
		samples[i] = f.Size
	}
	var gate *admission.Gate
	drive("admission.gate_build_ms", perMs, 1, func() (err error) {
		gate, err = admission.NewGate(samples, 1000*clip.AverageRate(), 1e-6, 1<<20)
		return err
	})
	if firstErr != nil {
		return firstErr
	}
	const batch = 1024
	drive("admission.try_admit_ns", 1, batch, func() error {
		for i := 0; i < batch; i++ {
			if !gate.TryAdmit() {
				return fmt.Errorf("gate refused an admit below its ceiling")
			}
			gate.Release()
		}
		return nil
	})
	var b obs.Builder
	counter := b.Counter("bench_events_total", "micro-driver counter")
	hist := b.Histogram("bench_latency_us", "micro-driver histogram")
	slots := obs.Build(&b, 1).Shard(0)
	drive("obs.record_ns", 1, batch, func() error {
		for i := 0; i < batch; i++ {
			slots.Inc(counter)
			slots.Observe(hist, int64(i)*37)
		}
		return nil
	})
	drive("obs.publish_ns", 1, batch, func() error {
		for i := 0; i < batch; i++ {
			slots.Publish()
		}
		return nil
	})
	lh := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
	drive("stats.loghist_add_ns", 1, batch, func() error {
		for i := 0; i < batch; i++ {
			lh.Add(int64(i) * 37)
		}
		return nil
	})
	if firstErr != nil {
		return firstErr
	}

	id := tr.begin("serve.sink_cpu_us_per_msg", root)
	v, err := sinkCPUPerMsg(short, ref)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("serve sink driver: %w", err)
	}
	res.set("serve.sink_cpu_us_per_msg", v)
	id = tr.begin("loadgen.replay_cpu_us_per_msg", root)
	v, err = replayCPUPerMsg(ref)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("loadgen replay driver: %w", err)
	}
	res.set("loadgen.replay_cpu_us_per_msg", v)
	return nil
}

// microSessions is the session count of the two engine-level drivers, and
// microStep their tick: short enough that the clip plays in a third of a
// second, long enough that a thousand sink sessions never overrun it.
const (
	microSessions = 1000
	microStep     = 2 * time.Millisecond
)

// sinkCPUPerMsg serves microSessions sessions on sink connections: the
// serving engine's tick with neither kernel nor client behind the write.
func sinkCPUPerMsg(clip *trace.Clip, ref *reference) (float64, error) {
	var done sync.WaitGroup
	var mu sync.Mutex
	var failed error
	eng, err := newServe(clip, ref.rate, microStep, func(_ serve.SessionStats, err error) {
		if err != nil {
			mu.Lock()
			failed = err
			mu.Unlock()
		}
		done.Done()
	})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	u0 := readUsage()
	for i := 0; i < microSessions; i++ {
		done.Add(1)
		if err := eng.Handle(newSinkConn()); err != nil {
			done.Done()
			return 0, err
		}
	}
	done.Wait()
	u1 := readUsage()
	if failed != nil {
		return 0, failed
	}
	return (u1.cpu() - u0.cpu()).Seconds() * 1e6 / float64(microSessions*len(ref.msgs)), nil
}

// replayCPUPerMsg runs the client engine against a server that answers the
// handshake and then writes the whole recorded stream in one chunk: read,
// decode and receive window without the paced server.
func replayCPUPerMsg(ref *reference) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var conns sync.WaitGroup
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer conn.Close()
				if _, err := netstream.ReadMsg(conn); err != nil {
					return // the client reports the failed session
				}
				if err := netstream.WriteAccept(conn, netstream.Accept{
					Rate: uint32(ref.rate), Delay: uint32(ref.delay), ServerBuffer: uint32(ref.buffer),
					StepMicros: uint32(microStep / time.Microsecond),
				}); err != nil {
					return
				}
				_, _ = conn.Write(ref.wire) // a short write fails the client session
			}()
		}
	}()
	defer func() {
		_ = ln.Close() // only unblocks Accept
		<-accepting
		conns.Wait()
	}()
	gen, err := loadgen.New(loadgen.Config{
		Addrs: []string{ln.Addr().String()}, Shards: 1, Buffer: clientBuffer, Delay: clientDelay,
		Dialers: runtime.NumCPU(), Digest: true,
	})
	if err != nil {
		return 0, err
	}
	defer gen.Close()
	u0 := readUsage()
	rep, err := gen.Run(microSessions)
	u1 := readUsage()
	if err != nil {
		return 0, err
	}
	if rep.Failed != 0 || rep.Messages != int64(microSessions*len(ref.msgs)) {
		return 0, fmt.Errorf("%d of %d replay sessions failed, %d messages", rep.Failed, rep.Sessions, rep.Messages)
	}
	return (u1.cpu() - u0.cpu()).Seconds() * 1e6 / float64(rep.Messages), nil
}
