package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/drop"
	"repro/internal/lb"
	"repro/internal/loadgen"
	"repro/internal/netstream"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
)

// netSpec is the shape of one network workload. The load is closed in the
// sense that a wave is a fixed number of sessions and the next wave starts
// when the last session of this one ends; within a session the server
// paces itself off its own tick.
type netSpec struct {
	tier     bool // loadgen -> lb -> 2 x serve, else loadgen -> serve
	sessions int  // per wave
	frames   int  // clip length
	step     time.Duration
	// paced workloads run below saturation, so a message has a deadline:
	// it is on time when its step lag is at most one StepDuration. The
	// others overrun their ticks by design and only count delivery.
	paced bool
	// perSession makes the completed session the unit of work (set-up and
	// tear-down dominate); otherwise it is the delivered data message.
	perSession bool
}

// netSpecs sizes every network workload under fdBudget: 2 descriptors per
// direct session, 7 per tier session.
var netSpecs = map[string]netSpec{
	"direct_paced":     {sessions: 1000, frames: 150, step: 20 * time.Millisecond, paced: true},
	"direct_saturated": {sessions: 1000, frames: 500, step: 2 * time.Millisecond},
	"direct_churn":     {sessions: 1000, frames: 24, step: 2 * time.Millisecond, perSession: true},
	"tier_paced":       {tier: true, sessions: 500, frames: 150, step: 20 * time.Millisecond, paced: true},
}

// stack is one in-process deployment: serving engines behind :0 loopback
// listeners, optionally the front tier, and the client engine.
type stack struct {
	spec netSpec
	ref  *reference
	tr   *tracer

	serves []*serve.Engine
	front  *lb.Engine
	gen    *loadgen.Engine
	lns    []net.Listener

	acceptWG sync.WaitGroup
	handleWG sync.WaitGroup
	closed   sync.Once
	waveSpan atomic.Int32 // parent of the Handle spans of the wave in flight

	// Output checks, fed from the engines' completion callbacks.
	mismatched  atomic.Int64
	firstBad    atomic.Pointer[string]
	serveFailed atomic.Int64
	handleErrs  atomic.Int64
	frontFailed atomic.Int64
	replaced    atomic.Int64
	placedOn    [2]atomic.Int64
	// Σ Elapsed and Σ Steps of cleanly finished serve sessions, for stretch.
	elapsedNanos atomic.Int64
	stepsDone    atomic.Int64
}

func (s *stack) bad(format string, args ...any) {
	s.mismatched.Add(1)
	msg := fmt.Sprintf(format, args...)
	s.firstBad.CompareAndSwap(nil, &msg)
}

// listen opens a loopback listener on a free port and serves every
// accepted connection through handle on its own goroutine (the handshake
// read blocks), recording one span per call.
func (s *stack) listen(spanName string, handle func(net.Conn) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.lns = append(s.lns, ln)
	s.acceptWG.Add(1)
	go func() {
		defer s.acceptWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.handleWG.Add(1)
			go func() {
				defer s.handleWG.Done()
				id := s.tr.begin(spanName, s.waveSpan.Load())
				err := handle(conn)
				s.tr.end(id)
				if err != nil {
					s.handleErrs.Add(1)
				}
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// sinkConn is a net.Conn that hands the server one Hello and swallows
// everything written to it: a session without kernel or client.
type sinkConn struct {
	hello *bytes.Reader
}

func newSinkConn() *sinkConn {
	var b bytes.Buffer
	// Writing to a bytes.Buffer cannot fail.
	_ = netstream.WriteHello(&b, netstream.Hello{ClientBuffer: clientBuffer, DesiredDelay: clientDelay})
	return &sinkConn{hello: bytes.NewReader(b.Bytes())}
}

func (c *sinkConn) Read(p []byte) (int, error)       { return c.hello.Read(p) }
func (c *sinkConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *sinkConn) Close() error                     { return nil }
func (c *sinkConn) LocalAddr() net.Addr              { return sinkAddr{} }
func (c *sinkConn) RemoteAddr() net.Addr             { return sinkAddr{} }
func (c *sinkConn) SetDeadline(time.Time) error      { return nil }
func (c *sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

type sinkAddr struct{}

func (sinkAddr) Network() string { return "sink" }
func (sinkAddr) String() string  { return "sink" }

// newServe builds one serving engine the way every workload configures it.
func newServe(clip *trace.Clip, rate int, step time.Duration, done func(serve.SessionStats, error)) (*serve.Engine, error) {
	return serve.New(clip, trace.PaperWeights(), serve.Config{
		Rate: rate, Shards: 1, StepDuration: step, Policy: drop.Greedy, OnSessionDone: done,
	})
}

// newStack sets one deployment up: clip, reference stream, engines,
// listeners, and one warm-up session per serving engine on a sink
// connection, which makes the engine build its cohort plan now instead of
// inside the first timed wave.
func newStack(spec netSpec, seed int64, tr *tracer, parent int32) (*stack, error) {
	s := &stack{spec: spec, tr: tr}
	s.waveSpan.Store(parent)
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	id := tr.begin("trace.Generate", parent)
	clip, err := genClip(spec.frames, seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("bench.reference", parent)
	s.ref, err = buildReference(clip)
	tr.end(id)
	if err != nil {
		return nil, err
	}

	backends := 1
	if spec.tier {
		backends = 2
	}
	var addrs []string
	for i := 0; i < backends; i++ {
		id = tr.begin("serve.New", parent)
		eng, err := newServe(clip, s.ref.rate, spec.step, s.onServeDone)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		s.serves = append(s.serves, eng)
		addr, err := s.listen("serve.Handle", eng.Handle)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, addr)
		id = tr.begin("serve.Handle", parent)
		err = eng.Handle(newSinkConn())
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("warm-up session: %w", err)
		}
	}

	target := addrs
	if spec.tier {
		samples := make([]int, len(clip.Frames))
		for i, f := range clip.Frames {
			samples[i] = f.Size
		}
		id = tr.begin("admission.NewGate", parent)
		gate, err := admission.NewGate(samples, 2*float64(spec.sessions)*clip.AverageRate(), 1e-6, 1<<20)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if gate.MaxStreams() < spec.sessions {
			return nil, fmt.Errorf("admission gate admits %d streams, the wave needs %d", gate.MaxStreams(), spec.sessions)
		}
		id = tr.begin("lb.New", parent)
		s.front, err = lb.New(lb.Config{
			Backends: addrs, Shards: 1, PlaceWorkers: runtime.NumCPU(), Gate: gate, OnSessionDone: s.onFrontDone,
		})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		addr, err := s.listen("lb.Handle", s.front.Handle)
		if err != nil {
			return nil, err
		}
		target = []string{addr}
	}

	id = tr.begin("loadgen.New", parent)
	s.gen, err = loadgen.New(loadgen.Config{
		Addrs: target, Shards: 1, Buffer: clientBuffer, Delay: clientDelay,
		Dialers: runtime.NumCPU(), Digest: true, OnSessionDone: s.onClientDone,
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// close tears the deployment down and waits for every goroutine it
// started; sessions still in flight are aborted. The engines' registries
// stay readable afterwards.
func (s *stack) close() {
	s.closed.Do(func() {
		for _, ln := range s.lns {
			_ = ln.Close() // only unblocks Accept
		}
		s.acceptWG.Wait()
		if s.gen != nil {
			s.gen.Close()
		}
		if s.front != nil {
			s.front.Close()
		}
		for _, eng := range s.serves {
			eng.Close()
		}
		s.handleWG.Wait()
	})
}

func (s *stack) onClientDone(st loadgen.SessionStats) {
	if st.Stage != "" {
		return // counted from the wave report
	}
	r := s.ref
	if st.Bytes != r.bytes || st.Steps != r.steps || st.Played != r.played || st.Digest != r.digest ||
		st.Incomplete != 0 || st.LateBytes != 0 {
		s.bad("client session %d: bytes %d steps %d played %d digest %x incomplete %d late %d, reference %d %d %d %x 0 0",
			st.Index, st.Bytes, st.Steps, st.Played, st.Digest, st.Incomplete, st.LateBytes,
			r.bytes, r.steps, r.played, r.digest)
	}
}

func (s *stack) onServeDone(st serve.SessionStats, err error) {
	if err != nil {
		s.serveFailed.Add(1)
		return
	}
	if st.Steps != s.ref.ticks || st.Dropped != s.ref.dropped {
		s.bad("serve session %s: steps %d dropped %d, reference %d %d", st.Remote, st.Steps, st.Dropped, s.ref.ticks, s.ref.dropped)
	}
	s.elapsedNanos.Add(int64(st.Elapsed))
	s.stepsDone.Add(int64(st.Steps))
}

func (s *stack) onFrontDone(st lb.SessionStats) {
	if st.Err != nil {
		s.frontFailed.Add(1)
		return
	}
	if st.Bytes != int64(len(s.ref.wire)) {
		s.bad("tier session %d relayed %d bytes, the direct reference is %d", st.ID, st.Bytes, len(s.ref.wire))
	}
	s.replaced.Add(int64(st.Replacements))
	if st.Backend >= 0 && st.Backend < len(s.placedOn) {
		s.placedOn[st.Backend].Add(1)
	}
}

// waveResult is one timed wave.
type waveResult struct {
	rep    loadgen.Report
	cpu    time.Duration
	traced bool
}

// units is the useful output of the wave in the workload's unit.
func (w waveResult) units(spec netSpec) float64 {
	if spec.perSession {
		return float64(w.rep.Completed)
	}
	return float64(w.rep.Messages)
}

// wave runs one wave of the workload's session count to completion.
func (s *stack) wave(i int, traced bool) (waveResult, error) {
	s.tr.scope(i, traced)
	root := s.tr.begin("wave", -1)
	s.waveSpan.Store(root)
	run := s.tr.begin("loadgen.Run", root)
	u0 := readUsage()
	rep, err := s.gen.Run(s.spec.sessions)
	u1 := readUsage()
	s.tr.end(run)
	if err == nil && s.front != nil && !s.front.Drain(10*time.Second) {
		err = fmt.Errorf("front tier still holds %d sessions after the wave", s.front.Active())
	}
	s.tr.end(root)
	if traced {
		s.snapshot(int32(i))
	}
	return waveResult{rep: rep, cpu: u1.cpu() - u0.cpu(), traced: traced}, err
}

// snapshot stores every engine's exported registry as of now.
func (s *stack) snapshot(wave int32) {
	add := func(layer string, r *obs.Registry) {
		var b bytes.Buffer
		if err := r.WriteJSON(&b, nil); err == nil {
			s.tr.snaps = append(s.tr.snaps, snapshot{Wave: wave, Layer: layer, Metrics: json.RawMessage(bytes.TrimSpace(b.Bytes()))})
		}
	}
	for i, eng := range s.serves {
		add(fmt.Sprintf("serve[%d]", i), eng.Obs())
	}
	if s.front != nil {
		add("lb", s.front.Obs())
	}
	add("loadgen", s.gen.Obs())
}

// scrape flattens a registry into name -> value; a histogram contributes
// name.count, name.sum, name.max and its rendered quantiles.
func scrape(r *obs.Registry) (map[string]float64, error) {
	var b bytes.Buffer
	if err := r.WriteJSON(&b, nil); err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b.Bytes(), &raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for name, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[name] = f
			continue
		}
		var h map[string]float64
		if err := json.Unmarshal(v, &h); err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		for k, f := range h {
			out[name+"."+k] = f
		}
	}
	return out, nil
}

// stepHist merges the serving engines' tick-duration histograms.
func (s *stack) stepHist() *stats.LogHistogram {
	sum := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
	one := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
	for _, eng := range s.serves {
		eng.Obs().MergedHist(eng.StepDurationHist(), one)
		sum.Merge(one)
	}
	return sum
}

// runNet measures one network workload.
func runNet(spec netSpec, seed int64, seconds float64, tr *tracer) (*result, error) {
	if err := checkFdLimit(); err != nil {
		return nil, err
	}
	res := newResult()

	// Set-up, several times over so that its median is steady (one takes
	// about a millisecond); the last deployment is the one measured.
	const setups = 15
	var s *stack
	var setupS []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		root := tr.begin("setup", -1)
		t0 := time.Now()
		var err error
		s, err = newStack(spec, seed, tr, root)
		setupS = append(setupS, time.Since(t0).Seconds())
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer s.close()
	res.set("setup_s", median(setupS))
	res.note("setup_s %s", describeSamples(setupS, "s"))

	var ms0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	step0 := s.stepHist()
	u0 := readUsage()

	// Waves until the time is up. A traced run switches the tracer off on
	// every other wave, so that the same process measures what tracing
	// costs.
	var waves []waveResult
	var longest time.Duration
	minWaves := 1
	if tr != nil {
		minWaves = 2
	}
	for i := 0; ; i++ {
		if elapsed := time.Since(u0.wall); i >= minWaves && (elapsed+longest).Seconds() > 1.05*seconds {
			break
		}
		w, err := s.wave(i, tr != nil && i%2 == 0)
		if err != nil {
			return nil, fmt.Errorf("wave %d: %w", i, err)
		}
		waves = append(waves, w)
		if w.rep.Elapsed > longest {
			longest = w.rep.Elapsed
		}
	}
	u1 := readUsage()
	// Every Handle goroutine has ended once this returns, so the spans and
	// the callback counters below are complete.
	s.close()

	// End-to-end metrics and output checks.
	ref := s.ref
	expectedUnits := float64(spec.sessions)
	if !spec.perSession {
		expectedUnits *= float64(len(ref.msgs))
	}
	var perS, onTime, wallS []float64
	var cpuPer [2][]float64 // [untraced, traced], for the tracing overhead
	var units, cpuS float64
	lag := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
	dial := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
	hs := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
	var total loadgen.Report
	for _, w := range waves {
		k := 0
		if w.traced {
			k = 1
		}
		rep := w.rep
		u := w.units(spec)
		units += u
		cpuS += w.cpu.Seconds()
		perS = append(perS, u/rep.Elapsed.Seconds())
		wallS = append(wallS, rep.Elapsed.Seconds())
		if u > 0 {
			cpuPer[k] = append(cpuPer[k], w.cpu.Seconds()*1e6/u)
		}
		good := u
		if spec.paced {
			good = fracAtMost(rep.Lag, spec.step.Microseconds()) * float64(rep.Lag.Count())
		}
		if good > expectedUnits {
			good = expectedUnits
		}
		onTime = append(onTime, good/expectedUnits)
		lag.Merge(rep.Lag)
		dial.Merge(rep.Dial)
		hs.Merge(rep.Handshake)
		total.Sessions += rep.Sessions
		total.Completed += rep.Completed
		total.Failed += rep.Failed
		total.DialFailed += rep.DialFailed
		total.HandshakeFailed += rep.HandshakeFailed
		total.MidStreamFailed += rep.MidStreamFailed
		total.Bytes += rep.Bytes
		total.Messages += rep.Messages
		total.Incomplete += rep.Incomplete
		total.LateBytes += rep.LateBytes
	}
	if units == 0 {
		return nil, fmt.Errorf("no session completed: %d dial, %d handshake, %d mid-stream failures",
			total.DialFailed, total.HandshakeFailed, total.MidStreamFailed)
	}
	res.set("cpu_us_per_unit", cpuS*1e6/units)
	res.set("units_per_s", median(perS))
	res.set("on_time_frac", median(onTime))
	res.attempted = int64(total.Sessions)
	res.failed = int64(total.Failed)
	res.note("waves %d x %d sessions, unit = %s; wave wall %s", len(waves), spec.sessions, unitName(spec), describeSamples(wallS, "s"))
	res.note("step lag %s", describeHist(lag))
	if spec.paced {
		res.note("on-time share per wave %.4f", onTime)
	}
	res.note("dial %s; handshake %s", describeHist(dial), describeHist(hs))

	res.check(total.Failed == 0, "%d of %d sessions failed (%d dial, %d handshake, %d mid-stream)",
		total.Failed, total.Sessions, total.DialFailed, total.HandshakeFailed, total.MidStreamFailed)
	res.check(total.Incomplete == 0 && total.LateBytes == 0, "%d incomplete slices and %d late bytes at rate 1.1", total.Incomplete, total.LateBytes)
	res.check(total.Messages == int64(total.Completed)*int64(len(ref.msgs)), "%d messages in %d completed sessions, reference has %d each",
		total.Messages, total.Completed, len(ref.msgs))
	if n := s.mismatched.Load(); n > 0 {
		res.check(false, "%d sessions differ from the reference; first: %s", n, *s.firstBad.Load())
	}
	res.check(s.serveFailed.Load() == 0, "%d serve sessions ended with an error", s.serveFailed.Load())
	res.check(s.handleErrs.Load() == 0, "%d Handle calls were refused", s.handleErrs.Load())
	if s.front != nil {
		res.check(s.frontFailed.Load() == 0, "%d tier sessions ended with an error", s.frontFailed.Load())
		res.check(s.front.SpliceFallbacks() == 0, "%d sessions fell back from splice to the copy relay", s.front.SpliceFallbacks())
	}
	if tr == nil {
		return res, nil
	}

	// Per-layer metrics of the traced waves.
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	wall := u1.wall.Sub(u0.wall).Seconds()
	spans := tr.recorded()
	usOf := func(name string) []float64 {
		d := durations(spans, name)
		for i := range d {
			d[i] /= 1e3
		}
		return d
	}
	res.set("serve.new_ms", median(usOf("serve.New"))/1e3)
	h := usOf("serve.Handle")
	res.set("serve.handle_p50_us", median(h))
	res.set("serve.handle_p99_us", quantile(h, 0.99))
	res.set("serve.handle_max_us", quantile(h, 1))
	res.note("serve.Handle %s", describeSamples(h, "us"))

	steps := stats.NewLogHistogram(stats.DefaultLogHistSubBits)
	steps.SetDelta(s.stepHist(), step0)
	res.set("serve.step_p50_us", float64(steps.Quantile(0.5)))
	res.set("serve.step_p99_us", float64(steps.Quantile(0.99)))
	res.set("serve.step_max_us", float64(steps.Max()))
	res.set("serve.ticks", float64(steps.Count()))
	res.set("serve.busy_frac", float64(steps.Sum())/1e6/wall/float64(len(s.serves)))
	res.note("serve tick %s", describeHist(steps))
	if n := s.stepsDone.Load(); n > 0 {
		res.set("serve.stretch", float64(s.elapsedNanos.Load())/(float64(n)*float64(spec.step)))
	}
	for _, eng := range s.serves {
		m, err := scrape(eng.Obs())
		if err != nil {
			return nil, err
		}
		res.add("serve.cohort_hits", m["serve_cohort_hits_total"])
		res.add("serve.cohort_misses", m["serve_cohort_misses_total"])
		res.add("serve.deadline_expiries", m["serve_write_deadline_expiries_total"])
		res.add("serve.sessions_failed", m["serve_sessions_failed_total"])
	}

	res.set("loadgen.dial_p50_us", float64(dial.Quantile(0.5)))
	res.set("loadgen.dial_p99_us", float64(dial.Quantile(0.99)))
	res.set("loadgen.handshake_p50_us", float64(hs.Quantile(0.5)))
	res.set("loadgen.handshake_p99_us", float64(hs.Quantile(0.99)))
	res.set("loadgen.step_lag_p50_us", float64(lag.Quantile(0.5)))
	res.set("loadgen.step_lag_p99_us", float64(lag.Quantile(0.99)))
	res.set("loadgen.step_lag_p9999_us", float64(lag.Quantile(0.9999)))
	res.set("loadgen.step_lag_mean_us", lag.Mean())
	res.set("loadgen.msgs", float64(total.Messages))
	res.set("loadgen.payload_mb_per_s", float64(total.Bytes)/1e6/wall)
	res.set("loadgen.incomplete_slices", float64(total.Incomplete))
	res.set("loadgen.late_bytes", float64(total.LateBytes))
	res.set("loadgen.failed_sessions", float64(total.Failed))

	if s.front != nil {
		m, err := scrape(s.front.Obs())
		if err != nil {
			return nil, err
		}
		res.set("lb.new_ms", median(usOf("lb.New"))/1e3)
		h := usOf("lb.Handle")
		res.set("lb.handle_p50_us", median(h))
		res.set("lb.handle_p99_us", quantile(h, 0.99))
		res.note("lb.Handle %s", describeSamples(h, "us"))
		res.set("lb.admit_wait_p99_us", m["lb_admit_wait_us.p99"])
		res.set("lb.relay_stalls", m["lb_relay_stalls_total"])
		res.set("lb.splice_fallbacks", float64(s.front.SpliceFallbacks()))
		res.set("lb.replacements", float64(s.replaced.Load()))
		res.set("lb.placement_failures", m["lb_placement_failures_total"])
		a, b := s.placedOn[0].Load(), s.placedOn[1].Load()
		if a < b {
			a, b = b, a
		}
		res.set("lb.backend_skew", float64(a-b)/float64(total.Sessions))
	}

	res.setProc(u0, u1, &ms0, &ms1, float64(total.Sessions))
	if off, on := median(cpuPer[0]), median(cpuPer[1]); off > 0 {
		res.set("proc.trace_overhead_frac", (on-off)/off)
	}
	return res, nil
}

func unitName(spec netSpec) string {
	if spec.perSession {
		return "completed session"
	}
	return "data message"
}
