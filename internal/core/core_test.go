package core_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	. "repro/internal/core" // dot-import: external test package avoids the core<->offline test cycle
	"repro/internal/drop"
	"repro/internal/sched"
	"repro/internal/stream"
)

func mustSimulate(t *testing.T, st *stream.Stream, cfg Config) *sched.Schedule {
	t.Helper()
	s, err := Simulate(st, cfg)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	return s
}

// randomStream builds a small random stream for property tests.
func randomStream(rng *rand.Rand, maxSliceSize int) *stream.Stream {
	b := stream.NewBuilder()
	n := rng.Intn(30) + 1
	for i := 0; i < n; i++ {
		size := rng.Intn(maxSliceSize) + 1
		b.Add(rng.Intn(15), size, float64(rng.Intn(50)+1))
	}
	return b.MustBuild()
}

func TestDelayBufferRateLaws(t *testing.T) {
	tests := []struct {
		b, r, wantD int
	}{
		{10, 2, 5},
		{10, 3, 4}, // ceil(10/3)
		{1, 1, 1},
		{7, 7, 1},
		{7, 10, 1},
	}
	for _, tc := range tests {
		if got := DelayFor(tc.b, tc.r); got != tc.wantD {
			t.Errorf("DelayFor(%d,%d) = %d, want %d", tc.b, tc.r, got, tc.wantD)
		}
	}
	if got := BufferFor(3, 4); got != 12 {
		t.Errorf("BufferFor(3,4) = %d, want 12", got)
	}
	if got := RateFor(10, 4); got != 3 {
		t.Errorf("RateFor(10,4) = %d, want 3 (ceil)", got)
	}
	if got := RateFor(10, 0); got != 10 {
		t.Errorf("RateFor(10,0) = %d, want 10", got)
	}
	if got := DelayFor(10, 0); got != 0 {
		t.Errorf("DelayFor(10,0) = %d, want 0", got)
	}
}

func TestConfigErrors(t *testing.T) {
	st := stream.NewBuilder().Add(0, 1, 1).MustBuild()
	bad := []Config{
		{ServerBuffer: 0, Rate: 1},
		{ServerBuffer: -1, Rate: 1},
		{ServerBuffer: 1, Rate: 0},
		{ServerBuffer: 1, Rate: 1, ClientBuffer: -2},
		{ServerBuffer: 1, Rate: 1, LinkDelay: -1},
	}
	for i, cfg := range bad {
		if _, err := Simulate(st, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSmoothStreamLosesNothing(t *testing.T) {
	// Constant-rate input exactly matching the link rate: zero loss,
	// and with B=RD every slice plays exactly D+P after arrival.
	b := stream.NewBuilder()
	for tt := 0; tt < 50; tt++ {
		b.Add(tt, 3, 3)
	}
	st := b.MustBuild()
	s := mustSimulate(t, st, Config{ServerBuffer: 6, Rate: 3})
	if s.DroppedSlices() != 0 {
		t.Errorf("dropped %d slices on a smooth stream", s.DroppedSlices())
	}
	if s.Throughput() != st.TotalBytes() {
		t.Errorf("throughput %d, want %d", s.Throughput(), st.TotalBytes())
	}
}

func TestBurstAbsorbedByBuffer(t *testing.T) {
	// One burst of exactly B bytes: nothing must be lost.
	st := stream.NewBuilder().AddFrame(0, 1, 1, 1, 1, 1, 1).MustBuild() // 6 unit slices
	s := mustSimulate(t, st, Config{ServerBuffer: 6, Rate: 2})          // D=3
	if s.DroppedSlices() != 0 {
		t.Errorf("dropped %d slices from a burst of exactly B", s.DroppedSlices())
	}
}

func TestOverflowDropsExactExcess(t *testing.T) {
	// 10 unit slices arrive at once; R=2, B=4: 2 sent in step 0, 4 kept,
	// so 4 must be dropped.
	b := stream.NewBuilder()
	for i := 0; i < 10; i++ {
		b.Add(0, 1, 1)
	}
	st := b.MustBuild()
	s := mustSimulate(t, st, Config{ServerBuffer: 4, Rate: 2})
	if got := s.DroppedSlices(); got != 4 {
		t.Errorf("dropped %d slices, want 4", got)
	}
	if got := s.DroppedAt(sched.SiteServer); got != 4 {
		t.Errorf("server drops = %d, want 4", got)
	}
	if got := s.Throughput(); got != 6 {
		t.Errorf("throughput = %d, want 6", got)
	}
}

func TestTailDropDropsNewest(t *testing.T) {
	// Frame 0 fills buffer+link; frame 1 overflows. Tail-drop discards
	// from frame 1.
	b := stream.NewBuilder()
	for i := 0; i < 3; i++ {
		b.Add(0, 1, 1)
	}
	for i := 0; i < 3; i++ {
		b.Add(1, 1, 1)
	}
	st := b.MustBuild()
	s := mustSimulate(t, st, Config{ServerBuffer: 2, Rate: 1, Policy: drop.TailDrop})
	// Step 0: 3 arrive, 1 sent, 2 kept. Step 1: 3 more arrive (occ 5),
	// 1 sent (occ 4), drop to 2 : two of frame 1 dropped... also step 0
	// needed no drop. Count drops from frame 1.
	dropped1 := 0
	for id := 3; id < 6; id++ {
		if s.At(id).Dropped() {
			dropped1++
		}
	}
	if s.DroppedSlices() != dropped1 {
		t.Errorf("tail-drop dropped old slices: total %d, from frame 1 %d", s.DroppedSlices(), dropped1)
	}
}

func TestGreedyKeepsValuable(t *testing.T) {
	// Low-value slices arrive first, then a burst of high-value ones.
	// Greedy must sacrifice the low-value slices.
	b := stream.NewBuilder()
	b.Add(0, 1, 1).Add(0, 1, 1).Add(0, 1, 1)
	b.Add(1, 1, 100).Add(1, 1, 100).Add(1, 1, 100)
	st := b.MustBuild()
	s := mustSimulate(t, st, Config{ServerBuffer: 3, Rate: 1, Policy: drop.Greedy})
	for id := 3; id < 6; id++ {
		if !s.At(id).Played() {
			t.Errorf("greedy lost high-value slice %d", id)
		}
	}
}

func TestPlayTimesRealTime(t *testing.T) {
	st := stream.NewBuilder().Add(0, 2, 2).Add(3, 2, 2).MustBuild()
	const P = 4
	s := mustSimulate(t, st, Config{ServerBuffer: 4, Rate: 2, LinkDelay: P})
	D := s.Params.Delay
	for id := 0; id < st.Len(); id++ {
		o := s.At(id)
		if !o.Played() {
			t.Fatalf("slice %d not played", id)
		}
		if want := st.Slice(id).Arrival + P + D; o.PlayTime != want {
			t.Errorf("slice %d played at %d, want %d", id, o.PlayTime, want)
		}
	}
}

func TestOversizeSliceDropped(t *testing.T) {
	st := stream.NewBuilder().Add(0, 10, 10).Add(0, 2, 2).MustBuild()
	s := mustSimulate(t, st, Config{ServerBuffer: 4, Rate: 2})
	if !s.At(0).Dropped() {
		t.Error("oversize slice not dropped")
	}
	if !s.At(1).Played() {
		t.Error("fitting slice was lost")
	}
}

func TestNoPreemption(t *testing.T) {
	// A big slice begins transmission, then a burst overflows the buffer:
	// the in-flight slice must survive.
	b := stream.NewBuilder()
	b.Add(0, 4, 4) // starts sending at step 0, takes 4 steps at R=1
	for i := 0; i < 6; i++ {
		b.Add(1, 1, 1)
	}
	st := b.MustBuild()
	s := mustSimulate(t, st, Config{ServerBuffer: 4, Rate: 1, Policy: drop.HeadDrop})
	if !s.At(0).Played() {
		t.Error("in-transmission slice was lost despite no-preemption rule")
	}
}

func TestUnderProvisionedDelayCausesClientDrops(t *testing.T) {
	// B=RD needs D=4; force D=1. A burst cannot reach the client in time.
	b := stream.NewBuilder()
	for i := 0; i < 8; i++ {
		b.Add(0, 1, 1)
	}
	st := b.MustBuild()
	s := mustSimulate(t, st, Config{ServerBuffer: 8, Rate: 2, Delay: 1})
	if got := s.DroppedAt(sched.SiteClient); got == 0 {
		t.Error("expected client-side (late) drops with D < B/R")
	}
	// The well-provisioned delay loses nothing.
	s2 := mustSimulate(t, st, Config{ServerBuffer: 8, Rate: 2, Delay: 4})
	if s2.DroppedSlices() != 0 {
		t.Errorf("D=B/R dropped %d slices", s2.DroppedSlices())
	}
}

func TestServerDropsLateAblation(t *testing.T) {
	// With DropLate the server discards doomed slices instead of sending
	// them; the link then carries only useful bytes. Total loss must not
	// increase versus naive late delivery.
	b := stream.NewBuilder()
	for i := 0; i < 12; i++ {
		b.Add(0, 1, 1)
	}
	for i := 0; i < 4; i++ {
		b.Add(6, 1, 1)
	}
	st := b.MustBuild()
	naive := mustSimulate(t, st, Config{ServerBuffer: 12, Rate: 2, Delay: 2})
	proactive := mustSimulate(t, st, Config{ServerBuffer: 12, Rate: 2, Delay: 2, ServerDropsLate: true})
	if proactive.Throughput() < naive.Throughput() {
		t.Errorf("proactive late-dropping reduced throughput: %d < %d",
			proactive.Throughput(), naive.Throughput())
	}
}

func TestSmallClientBufferOverflows(t *testing.T) {
	// Oversized delay with a small client buffer: bytes pile up at the
	// client and must be dropped there (Section 3.3, B < RD discussion).
	b := stream.NewBuilder()
	for tt := 0; tt < 12; tt++ {
		b.Add(tt, 2, 2)
	}
	st := b.MustBuild()
	s := mustSimulate(t, st, Config{ServerBuffer: 100, ClientBuffer: 2, Rate: 2, Delay: 10})
	if got := s.DroppedAt(sched.SiteClient); got == 0 {
		t.Error("expected client overflow drops with Bc << R*D")
	}
}

func TestEmptyStream(t *testing.T) {
	st := stream.NewBuilder().MustBuild()
	s := mustSimulate(t, st, Config{ServerBuffer: 4, Rate: 2})
	if len(s.SentPerStep) != 0 {
		t.Errorf("empty stream simulated %d steps", len(s.SentPerStep))
	}
	if s.Benefit() != 0 || s.Throughput() != 0 {
		t.Error("empty stream has non-zero metrics")
	}
}

func TestAllPoliciesProduceValidSchedules(t *testing.T) {
	// Property: for random streams and parameters, every policy yields a
	// schedule that passes the model validator, and with B=RD and Bc=B
	// there are never client-side drops (Lemmas 3.3, 3.4).
	factories := []drop.Factory{drop.TailDrop, drop.HeadDrop, drop.Greedy, drop.Random(99)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStream(rng, 4)
		rate := rng.Intn(4) + 1
		bufUnits := rng.Intn(8) + 1
		buffer := rate * bufUnits // keep R | B so D = B/R exactly
		if buffer < st.MaxSliceSize() {
			buffer = st.MaxSliceSize() * rate
		}
		linkDelay := rng.Intn(3)
		for _, factory := range factories {
			s, err := Simulate(st, Config{
				ServerBuffer: buffer,
				Rate:         rate,
				LinkDelay:    linkDelay,
				Policy:       factory,
			})
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if err := s.Validate(); err != nil {
				t.Logf("seed %d policy %s: %v", seed, s.Algorithm, err)
				return false
			}
			if s.DroppedAt(sched.SiteClient) != 0 {
				t.Logf("seed %d policy %s: client drops with B=RD", seed, s.Algorithm)
				return false
			}
			if s.ServerBufferRequirement() > buffer {
				return false
			}
			if s.ClientBufferRequirement() > buffer {
				return false
			}
			if s.LinkRateRequirement() > rate {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := randomStream(rng, 3)
	cfg := Config{ServerBuffer: 6, Rate: 2, Policy: drop.Greedy}
	a := mustSimulate(t, st, cfg)
	b := mustSimulate(t, st, cfg)
	if a.Benefit() != b.Benefit() || a.Throughput() != b.Throughput() {
		t.Error("simulation not deterministic")
	}
	if !slices.Equal(a.Outcomes, b.Outcomes) {
		t.Fatal("outcomes differ between identical runs")
	}
}

func TestWorkConserving(t *testing.T) {
	// The generic server must send at full rate whenever it has data:
	// |S(t)| = min(R, backlog). Check on a bursty stream.
	b := stream.NewBuilder()
	b.AddFrame(0, 1, 1, 1, 1, 1, 1, 1, 1)
	b.AddFrame(5, 1, 1, 1)
	st := b.MustBuild()
	s := mustSimulate(t, st, Config{ServerBuffer: 8, Rate: 2})
	backlog := 0
	for t2 := 0; t2 < len(s.SentPerStep); t2++ {
		arrived := 0
		for _, sl := range st.ArrivalsAt(t2) {
			arrived += sl.Size
		}
		avail := backlog + arrived
		want := avail
		if want > 2 {
			want = 2
		}
		if s.SentPerStep[t2] != want {
			t.Fatalf("step %d sent %d, want %d (work conservation)", t2, s.SentPerStep[t2], want)
		}
		backlog = avail - s.SentPerStep[t2]
		if backlog > 8 {
			backlog = 8 // drops
		}
	}
}

func TestSentEqualsEq2(t *testing.T) {
	// Eq. (2): |S(t)| = min(R, |Bs(t-1)| + |A(t)|), for random streams
	// and the tail-drop policy.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := randomStream(rng, 3)
		rate := rng.Intn(3) + 1
		buffer := (rng.Intn(6) + st.MaxSliceSize()) * rate
		s, err := Simulate(st, Config{ServerBuffer: buffer, Rate: rate})
		if err != nil {
			return false
		}
		occPrev := 0
		for t2 := range s.SentPerStep {
			arrived := 0
			for _, sl := range st.ArrivalsAt(t2) {
				arrived += sl.Size
			}
			want := occPrev + arrived
			if want > rate {
				want = rate
			}
			if s.SentPerStep[t2] != want {
				return false
			}
			occPrev = s.ServerOcc[t2]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestServerAccessorsAndCompaction(t *testing.T) {
	// A long run with many small slices exercises the queue-compaction
	// path and the accessors.
	b := stream.NewBuilder()
	for i := 0; i < 400; i++ {
		b.Add(i, 1, 1)
	}
	st := b.MustBuild()
	sv := NewServer(4, 1, drop.TailDrop(), ServerOptions{})
	if sv.Rate() != 1 {
		t.Errorf("Rate = %d", sv.Rate())
	}
	sv.SetRate(0) // ignored
	if sv.Rate() != 1 {
		t.Error("SetRate(0) changed the rate")
	}
	sv.SetRate(2)
	if sv.Rate() != 2 {
		t.Error("SetRate(2) ignored")
	}
	sent := 0
	for t2 := 0; t2 <= st.Horizon() || !sv.Empty(); t2++ {
		res := sv.Step(t2, st.RunsAt(t2))
		sent += res.SentBytes
		if sv.Occupancy() != res.Occupancy {
			t.Fatalf("Occupancy() %d != step result %d", sv.Occupancy(), res.Occupancy)
		}
	}
	if sent != st.TotalBytes() {
		t.Errorf("sent %d of %d at rate 2 >= arrival rate", sent, st.TotalBytes())
	}
}

func TestClientOccupancyAccessor(t *testing.T) {
	st := stream.NewBuilder().Add(0, 3, 3).MustBuild()
	cl := NewClient(3, 1, 0, st)
	cl.Step(0, []Batch{{SliceID: 0, Bytes: 3, Size: 3}})
	if cl.Occupancy() != 3 {
		t.Errorf("Occupancy = %d, want 3", cl.Occupancy())
	}
	cl.Step(1, nil) // plays at arrival+D = 1
	if cl.Occupancy() != 0 {
		t.Errorf("Occupancy = %d after playout", cl.Occupancy())
	}
}
