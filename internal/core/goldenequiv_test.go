package core_test

// Golden equivalence: the dense-window drop policies, the dense-array
// Server/Client, and the reusable core.Runner arena are pure performance
// refactors — they must produce byte-identical sched.Schedule output to the
// seed implementations. This file embeds a self-contained copy of the seed
// simulator (map-based policy sets, map-based server position index,
// map-based client buffer, allocating link pipe) as the reference model and
// compares full WriteJSON output across policies, seeds, unit and
// variable-size slices, and well/under-provisioned configurations.

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/sched"
	"repro/internal/stream"
	"repro/internal/trace"
)

// ---------------------------------------------------------------------------
// Reference drop policies (seed rev c1c4e6f internal/drop).
// ---------------------------------------------------------------------------

type refPolicy interface {
	Name() string
	Add(s stream.Slice)
	Remove(id int)
	Victim() (stream.Slice, bool)
	Len() int
}

type refEarlyDropper interface {
	refPolicy
	EarlyVictim(occupancy, capacity int) (stream.Slice, bool)
}

type refLazySet struct{ present map[int]stream.Slice }

func newRefLazySet() refLazySet { return refLazySet{present: make(map[int]stream.Slice)} }

func (l *refLazySet) add(s stream.Slice) { l.present[s.ID] = s }
func (l *refLazySet) remove(id int)      { delete(l.present, id) }
func (l *refLazySet) len() int           { return len(l.present) }
func (l *refLazySet) get(id int) (stream.Slice, bool) {
	s, ok := l.present[id]
	return s, ok
}

type refTailDrop struct {
	stack []int
	set   refLazySet
}

func newRefTailDrop() refPolicy { return &refTailDrop{set: newRefLazySet()} }

func (p *refTailDrop) Name() string { return "taildrop" }
func (p *refTailDrop) Add(s stream.Slice) {
	p.set.add(s)
	p.stack = append(p.stack, s.ID)
}
func (p *refTailDrop) Remove(id int) { p.set.remove(id) }
func (p *refTailDrop) Victim() (stream.Slice, bool) {
	for len(p.stack) > 0 {
		id := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		if s, ok := p.set.get(id); ok {
			p.set.remove(id)
			return s, true
		}
	}
	return stream.Slice{}, false
}
func (p *refTailDrop) Len() int { return p.set.len() }

type refHeadDrop struct {
	queue []int
	head  int
	set   refLazySet
}

func newRefHeadDrop() refPolicy { return &refHeadDrop{set: newRefLazySet()} }

func (p *refHeadDrop) Name() string { return "headdrop" }
func (p *refHeadDrop) Add(s stream.Slice) {
	p.set.add(s)
	p.queue = append(p.queue, s.ID)
}
func (p *refHeadDrop) Remove(id int) { p.set.remove(id) }
func (p *refHeadDrop) Victim() (stream.Slice, bool) {
	for p.head < len(p.queue) {
		id := p.queue[p.head]
		p.head++
		if s, ok := p.set.get(id); ok {
			p.set.remove(id)
			return s, true
		}
	}
	return stream.Slice{}, false
}
func (p *refHeadDrop) Len() int { return p.set.len() }

type refGreedyItem struct {
	id        int
	byteValue float64
}

type refGreedyHeap []refGreedyItem

func (h refGreedyHeap) Len() int { return len(h) }
func (h refGreedyHeap) Less(i, j int) bool {
	if h[i].byteValue != h[j].byteValue {
		return h[i].byteValue < h[j].byteValue
	}
	return h[i].id > h[j].id
}
func (h refGreedyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refGreedyHeap) Push(x any)   { *h = append(*h, x.(refGreedyItem)) }
func (h *refGreedyHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

type refGreedy struct {
	h   refGreedyHeap
	set refLazySet
}

func newRefGreedy() *refGreedy { return &refGreedy{set: newRefLazySet()} }

func (p *refGreedy) Name() string { return "greedy" }
func (p *refGreedy) Add(s stream.Slice) {
	p.set.add(s)
	heap.Push(&p.h, refGreedyItem{id: s.ID, byteValue: s.ByteValue()})
}
func (p *refGreedy) Remove(id int) { p.set.remove(id) }
func (p *refGreedy) Victim() (stream.Slice, bool) {
	for p.h.Len() > 0 {
		it := heap.Pop(&p.h).(refGreedyItem)
		if s, ok := p.set.get(it.id); ok {
			p.set.remove(it.id)
			return s, true
		}
	}
	return stream.Slice{}, false
}
func (p *refGreedy) peek() (stream.Slice, bool) {
	for p.h.Len() > 0 {
		if s, ok := p.set.get(p.h[0].id); ok {
			return s, true
		}
		heap.Pop(&p.h)
	}
	return stream.Slice{}, false
}
func (p *refGreedy) Len() int { return p.set.len() }

type refRandom struct {
	rng  *rand.Rand
	seed int64
	ids  []int
	pos  map[int]int
	all  map[int]stream.Slice
}

func newRefRandom(seed int64) *refRandom {
	return &refRandom{
		rng:  rand.New(rand.NewSource(seed)),
		seed: seed,
		pos:  make(map[int]int),
		all:  make(map[int]stream.Slice),
	}
}

func (p *refRandom) Name() string { return fmt.Sprintf("random(seed=%d)", p.seed) }
func (p *refRandom) Add(s stream.Slice) {
	if _, ok := p.pos[s.ID]; ok {
		return
	}
	p.pos[s.ID] = len(p.ids)
	p.ids = append(p.ids, s.ID)
	p.all[s.ID] = s
}
func (p *refRandom) Remove(id int) {
	i, ok := p.pos[id]
	if !ok {
		return
	}
	last := len(p.ids) - 1
	p.ids[i] = p.ids[last]
	p.pos[p.ids[i]] = i
	p.ids = p.ids[:last]
	delete(p.pos, id)
	delete(p.all, id)
}
func (p *refRandom) Victim() (stream.Slice, bool) {
	if len(p.ids) == 0 {
		return stream.Slice{}, false
	}
	id := p.ids[p.rng.Intn(len(p.ids))]
	s := p.all[id]
	p.Remove(id)
	return s, true
}
func (p *refRandom) Len() int { return len(p.ids) }

type refAnticipate struct {
	*refGreedy
	threshold  float64
	valueFloor float64
}

func newRefAnticipate(threshold, valueFloor float64) refPolicy {
	return &refAnticipate{refGreedy: newRefGreedy(), threshold: threshold, valueFloor: valueFloor}
}

func (p *refAnticipate) Name() string { return "anticipate" }
func (p *refAnticipate) EarlyVictim(occupancy, capacity int) (stream.Slice, bool) {
	if float64(occupancy) <= p.threshold*float64(capacity) {
		return stream.Slice{}, false
	}
	s, ok := p.peek()
	if !ok {
		return stream.Slice{}, false
	}
	if p.valueFloor > 0 && s.ByteValue() >= p.valueFloor {
		return stream.Slice{}, false
	}
	return p.Victim()
}

type refRandomMix struct {
	g    *refGreedy
	r    *refRandom
	coin func() float64
	prob float64
}

func newRefRandomMix(seed int64, prob float64) refPolicy {
	r := newRefRandom(seed)
	return &refRandomMix{g: newRefGreedy(), r: r, coin: r.rng.Float64, prob: prob}
}

func (p *refRandomMix) Name() string { return "randommix" }
func (p *refRandomMix) Add(s stream.Slice) {
	p.g.Add(s)
	p.r.Add(s)
}
func (p *refRandomMix) Remove(id int) {
	p.g.Remove(id)
	p.r.Remove(id)
}
func (p *refRandomMix) Victim() (stream.Slice, bool) {
	if p.coin() < p.prob {
		s, ok := p.r.Victim()
		if ok {
			p.g.Remove(s.ID)
		}
		return s, ok
	}
	s, ok := p.g.Victim()
	if ok {
		p.r.Remove(s.ID)
	}
	return s, ok
}
func (p *refRandomMix) Len() int { return p.g.Len() }

// ---------------------------------------------------------------------------
// Reference server, client and link pipe (seed rev c1c4e6f internal/core).
// ---------------------------------------------------------------------------

type refServerEntry struct {
	s         stream.Slice
	remaining int
	started   bool
	dropped   bool
}

type refServer struct {
	buffer   int
	rate     int
	policy   refPolicy
	dropLate bool
	deadline int

	queue []refServerEntry
	head  int
	pos   map[int]int
	occ   int
}

type refServerResult struct {
	Sent      []core.Batch
	SentBytes int
	Finished  []int
	Dropped   []stream.Slice
	Occupancy int
}

func newRefServer(buffer, rate int, policy refPolicy, dropLate bool, deadline int) *refServer {
	return &refServer{buffer: buffer, rate: rate, policy: policy,
		dropLate: dropLate, deadline: deadline, pos: make(map[int]int)}
}

func (sv *refServer) Contains(id int) bool {
	i, ok := sv.pos[id]
	return ok && !sv.queue[i].dropped && sv.queue[i].remaining > 0
}

func (sv *refServer) Empty() bool { return sv.occ == 0 }

func (sv *refServer) Step(t int, arrivals []stream.Slice) refServerResult {
	var res refServerResult

	if sv.dropLate {
		for i := sv.head; i < len(sv.queue); i++ {
			e := &sv.queue[i]
			if e.dropped || e.started {
				continue
			}
			if e.s.Arrival+sv.deadline < t {
				sv.policy.Remove(e.s.ID)
				sv.removeByID(e.s.ID)
				res.Dropped = append(res.Dropped, e.s)
			}
		}
	}

	for _, sl := range arrivals {
		if sl.Size > sv.buffer {
			res.Dropped = append(res.Dropped, sl)
			continue
		}
		sv.pos[sl.ID] = len(sv.queue)
		sv.queue = append(sv.queue, refServerEntry{s: sl, remaining: sl.Size})
		sv.occ += sl.Size
		sv.policy.Add(sl)
	}

	if ed, ok := sv.policy.(refEarlyDropper); ok {
		for {
			victim, more := ed.EarlyVictim(sv.occ, sv.buffer)
			if !more {
				break
			}
			sv.removeByID(victim.ID)
			res.Dropped = append(res.Dropped, victim)
		}
	}

	budget := sv.rate
	for budget > 0 && sv.head < len(sv.queue) {
		e := &sv.queue[sv.head]
		if e.dropped {
			sv.advanceHead()
			continue
		}
		if !e.started {
			e.started = true
			sv.policy.Remove(e.s.ID)
		}
		n := e.remaining
		if n > budget {
			n = budget
		}
		e.remaining -= n
		budget -= n
		sv.occ -= n
		res.Sent = append(res.Sent, core.Batch{SliceID: e.s.ID, Bytes: n})
		res.SentBytes += n
		if e.remaining == 0 {
			res.Finished = append(res.Finished, e.s.ID)
			sv.advanceHead()
		}
	}

	for sv.occ > sv.buffer {
		victim, ok := sv.policy.Victim()
		if !ok {
			break
		}
		sv.removeByID(victim.ID)
		res.Dropped = append(res.Dropped, victim)
	}

	res.Occupancy = sv.occ
	return res
}

func (sv *refServer) removeByID(id int) {
	i, ok := sv.pos[id]
	if !ok {
		return
	}
	e := &sv.queue[i]
	if e.dropped {
		return
	}
	e.dropped = true
	sv.occ -= e.remaining
	delete(sv.pos, id)
}

func (sv *refServer) advanceHead() {
	if i, ok := sv.pos[sv.queue[sv.head].s.ID]; ok && i == sv.head {
		delete(sv.pos, sv.queue[sv.head].s.ID)
	}
	sv.head++
}

type refClient struct {
	buffer    int
	delay     int
	linkDelay int
	st        *stream.Stream

	held    map[int]int
	ignored map[int]bool
	occ     int
}

type refClientResult struct {
	Played    []int
	Dropped   []int
	Occupancy int
}

func newRefClient(buffer, delay, linkDelay int, st *stream.Stream) *refClient {
	return &refClient{buffer: buffer, delay: delay, linkDelay: linkDelay, st: st,
		held: make(map[int]int), ignored: make(map[int]bool)}
}

func (cl *refClient) Step(t int, delivered []core.Batch) refClientResult {
	var res refClientResult

	for _, b := range delivered {
		if cl.ignored[b.SliceID] {
			continue
		}
		cl.held[b.SliceID] += b.Bytes
		cl.occ += b.Bytes
	}

	for _, sl := range cl.st.ArrivalsAt(t - cl.linkDelay - cl.delay) {
		if cl.ignored[sl.ID] {
			continue
		}
		if cl.held[sl.ID] == sl.Size {
			res.Played = append(res.Played, sl.ID)
			cl.occ -= sl.Size
			delete(cl.held, sl.ID)
			cl.ignored[sl.ID] = true
			continue
		}
		res.Dropped = append(res.Dropped, sl.ID)
		cl.occ -= cl.held[sl.ID]
		delete(cl.held, sl.ID)
		cl.ignored[sl.ID] = true
	}

	for cl.occ > cl.buffer {
		victim := cl.latestDeadlineHeld()
		if victim < 0 {
			break
		}
		res.Dropped = append(res.Dropped, victim)
		cl.occ -= cl.held[victim]
		delete(cl.held, victim)
		cl.ignored[victim] = true
	}

	res.Occupancy = cl.occ
	return res
}

func (cl *refClient) latestDeadlineHeld() int {
	ids := make([]int, 0, len(cl.held))
	for id := range cl.held {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return -1
	}
	sort.Ints(ids)
	best := -1
	bestArrival := -1
	for _, id := range ids {
		a := cl.st.Slice(id).Arrival
		if a > bestArrival || (a == bestArrival && id > best) {
			best, bestArrival = id, a
		}
	}
	return best
}

type refPipe struct {
	ring     [][]core.Batch
	head     int
	inFlight int
}

func newRefPipe(delay int) *refPipe { return &refPipe{ring: make([][]core.Batch, delay+1)} }

func (p *refPipe) push(batches []core.Batch) {
	tail := (p.head + len(p.ring) - 1) % len(p.ring)
	p.ring[tail] = append(p.ring[tail], batches...)
	for _, b := range batches {
		p.inFlight += b.Bytes
	}
}

func (p *refPipe) pop() []core.Batch {
	out := p.ring[p.head]
	p.ring[p.head] = nil
	p.head = (p.head + 1) % len(p.ring)
	for _, b := range out {
		p.inFlight -= b.Bytes
	}
	return out
}

func (p *refPipe) empty() bool { return p.inFlight == 0 }

// refSimulate is the seed Simulate loop, driving the reference components.
func refSimulate(st *stream.Stream, cfg core.Config, policy refPolicy) (*sched.Schedule, error) {
	if cfg.Delay <= 0 {
		cfg.Delay = core.DelayFor(cfg.ServerBuffer, cfg.Rate)
	}
	if cfg.ClientBuffer == 0 {
		cfg.ClientBuffer = cfg.ServerBuffer
		if law := cfg.Rate * cfg.Delay; law > cfg.ClientBuffer {
			cfg.ClientBuffer = law
		}
	}
	out := &sched.Schedule{
		Stream: st,
		Params: sched.Params{
			ServerBuffer: cfg.ServerBuffer,
			ClientBuffer: cfg.ClientBuffer,
			Rate:         cfg.Rate,
			Delay:        cfg.Delay,
			LinkDelay:    cfg.LinkDelay,
		},
		Outcomes:  make([]sched.Outcome, st.Len()),
		Algorithm: "generic/" + policy.Name(),
	}
	for i := range out.Outcomes {
		out.Outcomes[i] = sched.Outcome{
			SendStart: sched.None, SendEnd: sched.None,
			DropTime: sched.None, PlayTime: sched.None,
		}
	}
	server := newRefServer(cfg.ServerBuffer, cfg.Rate, policy, cfg.ServerDropsLate, cfg.Delay)
	client := newRefClient(cfg.ClientBuffer, cfg.Delay, cfg.LinkDelay, st)
	link := newRefPipe(cfg.LinkDelay)

	resolved := 0
	pendingLate := make(map[int]int)
	maxSteps := st.Horizon() + cfg.LinkDelay + cfg.Delay + st.TotalBytes()/cfg.Rate + 9
	for t := 0; t <= st.Horizon() || resolved < st.Len() || !server.Empty() || !link.empty(); t++ {
		res := server.Step(t, st.ArrivalsAt(t))
		for _, d := range res.Dropped {
			delete(pendingLate, d.ID)
			if out.Outcomes[d.ID].DropTime == sched.None {
				out.Outcomes[d.ID].DropTime = t
				out.Outcomes[d.ID].DropSite = sched.SiteServer
				resolved++
			}
		}
		for _, b := range res.Sent {
			o := &out.Outcomes[b.SliceID]
			if o.SendStart == sched.None {
				o.SendStart = t
			}
		}
		for _, id := range res.Finished {
			out.Outcomes[id].SendEnd = t
			if lateAt, ok := pendingLate[id]; ok {
				delete(pendingLate, id)
				out.Outcomes[id].DropTime = lateAt
				out.Outcomes[id].DropSite = sched.SiteClient
				resolved++
			}
		}
		link.push(res.Sent)

		cres := client.Step(t, link.pop())
		for _, id := range cres.Played {
			out.Outcomes[id].PlayTime = t
			resolved++
		}
		for _, id := range cres.Dropped {
			if out.Outcomes[id].DropTime != sched.None {
				continue
			}
			if server.Contains(id) {
				pendingLate[id] = t
				continue
			}
			out.Outcomes[id].DropTime = t
			out.Outcomes[id].DropSite = sched.SiteClient
			resolved++
		}

		out.SentPerStep = append(out.SentPerStep, res.SentBytes)
		out.ServerOcc = append(out.ServerOcc, res.Occupancy)
		out.ClientOcc = append(out.ClientOcc, cres.Occupancy)

		if t > maxSteps {
			return nil, fmt.Errorf("reference simulation failed to terminate by step %d", t)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// The equivalence matrix.
// ---------------------------------------------------------------------------

func scheduleJSON(t *testing.T, s *sched.Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

type goldenPolicy struct {
	name    string
	factory drop.Factory
	ref     func() refPolicy
}

func goldenPolicies() []goldenPolicy {
	return []goldenPolicy{
		{"taildrop", drop.TailDrop, newRefTailDrop},
		{"headdrop", drop.HeadDrop, newRefHeadDrop},
		{"greedy", drop.Greedy, func() refPolicy { return newRefGreedy() }},
		{"random-1", drop.Random(1), func() refPolicy { return newRefRandom(1) }},
		{"random-42", drop.Random(42), func() refPolicy { return newRefRandom(42) }},
		{"anticipate", drop.Anticipate(0.7, 2.0), func() refPolicy { return newRefAnticipate(0.7, 2.0) }},
		{"randommix-7", drop.RandomMix(7, 0.5), func() refPolicy { return newRefRandomMix(7, 0.5) }},
		// Victims that punch holes anywhere in a run: mostly-random mixes,
		// another random seed, and anticipation with no value floor.
		{"random-7", drop.Random(7), func() refPolicy { return newRefRandom(7) }},
		{"randommix-11", drop.RandomMix(11, 0.9), func() refPolicy { return newRefRandomMix(11, 0.9) }},
		{"anticipate-nofloor", drop.Anticipate(0.5, 0), func() refPolicy { return newRefAnticipate(0.5, 0) }},
	}
}

// mixedRunStream builds frames of up to four runs each, with run lengths
// 1..6, slice sizes 1..4 and a few weights per size, so adjacent runs
// sometimes coalesce and victims, late drops and partial sends cut runs of
// every shape.
func mixedRunStream(seed int64, steps int) *stream.Stream {
	rng := rand.New(rand.NewSource(seed))
	b := stream.NewBuilder()
	for t := 0; t < steps; t++ {
		for j := rng.Intn(4); j >= 0; j-- {
			size := 1 + rng.Intn(4)
			b.AddRun(t, 1+rng.Intn(6), size, float64(size*(1+rng.Intn(3))))
		}
	}
	return b.MustBuild()
}

// TestGoldenEquivalence runs every policy over unit-slice and variable-size
// streams under well- and under-provisioned configurations, and asserts that
// (a) core.Simulate with the dense implementations and (b) a single
// core.Runner arena reused across ALL cases both reproduce the seed
// simulator's schedule byte-for-byte. The shared runner across heterogeneous
// runs is the state-leakage check; a second full pass over the matrix checks
// that pooled policies reseed deterministically after Recycle.
func TestGoldenEquivalence(t *testing.T) {
	gc := trace.DefaultGenConfig()
	gc.Frames = 90
	cl, err := trace.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := trace.ByteSliceStream(cl, trace.PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	frames, err := trace.WholeFrameStream(cl, trace.PaperWeights())
	if err != nil {
		t.Fatal(err)
	}

	maxFrame := cl.MaxFrameSize()
	avg := cl.AverageRate()
	type streamCase struct {
		name    string
		st      *stream.Stream
		configs []core.Config
	}
	cases := []streamCase{
		{
			name: "unit",
			st:   unit,
			configs: []core.Config{
				{ServerBuffer: 480, Rate: 35},                                           // well provisioned
				{ServerBuffer: 480, Rate: 33},                                           // lossy rate
				{ServerBuffer: 96, Rate: 7},                                             // tight buffer, heavy loss
				{ServerBuffer: 480, Rate: 33, LinkDelay: 2},                             // propagation delay
				{ServerBuffer: 480, Rate: 30, Delay: 6, ServerDropsLate: true},          // under-provisioned D
				{ServerBuffer: 480, Rate: 33, ClientBuffer: 64, ServerDropsLate: false}, // client overflow path
			},
		},
		{
			name: "frames",
			st:   frames,
			configs: []core.Config{
				{ServerBuffer: 4 * maxFrame, Rate: int(0.9 * avg)}, // Fig. 3 operating point
				{ServerBuffer: 2 * maxFrame, Rate: int(0.7 * avg)}, // lossy
				{ServerBuffer: maxFrame / 2, Rate: int(avg)},       // oversize slices dropped on arrival
				{ServerBuffer: 2 * maxFrame, Rate: int(0.8 * avg), LinkDelay: 1},
			},
		},
		{
			name: "mixed",
			st:   mixedRunStream(5, 120),
			configs: []core.Config{
				{ServerBuffer: 96, Rate: 22},                                  // mild loss
				{ServerBuffer: 48, Rate: 18},                                  // lossy
				{ServerBuffer: 24, Rate: 12},                                  // heavy loss
				{ServerBuffer: 3, Rate: 3},                                    // size-4 slices dropped on arrival
				{ServerBuffer: 60, Rate: 18, Delay: 2, ServerDropsLate: true}, // late drops cut runs
				{ServerBuffer: 60, Rate: 16, Delay: 1, ServerDropsLate: true, LinkDelay: 1},
				{ServerBuffer: 48, Rate: 20, ClientBuffer: 16}, // client overflow path
			},
		},
		{
			name: "mixed-late",
			st:   mixedRunStream(9, 80),
			configs: []core.Config{
				{ServerBuffer: 40, Rate: 14, Delay: 1, ServerDropsLate: true},
				{ServerBuffer: 80, Rate: 20, Delay: 2, ServerDropsLate: true, LinkDelay: 2},
			},
		},
	}

	// One arena for the entire matrix: any state leaking between
	// heterogeneous runs (policy pools, dense arrays, pipe ring) would break
	// byte equality somewhere downstream.
	shared := core.NewRunner()
	for pass := 1; pass <= 2; pass++ {
		for _, sc := range cases {
			for ci, cfg := range sc.configs {
				for _, pol := range goldenPolicies() {
					label := fmt.Sprintf("pass%d/%s/cfg%d/%s", pass, sc.name, ci, pol.name)
					refCfg := cfg
					want, err := refSimulate(sc.st, refCfg, pol.ref())
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					want.Outcomes = spansOf(want.Outcomes)
					wantJSON := scheduleJSON(t, want)

					simCfg := cfg
					simCfg.Policy = pol.factory
					got, err := core.Simulate(sc.st, simCfg)
					if err != nil {
						t.Fatalf("%s: Simulate: %v", label, err)
					}
					if gotJSON := scheduleJSON(t, got); !bytes.Equal(wantJSON, gotJSON) {
						t.Fatalf("%s: Simulate schedule differs from seed reference\nref:  %.200s\ngot:  %.200s",
							label, wantJSON, gotJSON)
					}

					arena, err := shared.Run(sc.st, simCfg)
					if err != nil {
						t.Fatalf("%s: Runner.Run: %v", label, err)
					}
					if arenaJSON := scheduleJSON(t, arena); !bytes.Equal(wantJSON, arenaJSON) {
						t.Fatalf("%s: shared-arena schedule differs from seed reference\nref:  %.200s\ngot:  %.200s",
							label, wantJSON, arenaJSON)
					}
				}
			}
		}
	}
}

// TestRunnerPoolEquivalence checks the Acquire/Release pool path used by the
// sweep workers: pooled runners that previously ran a different policy and
// stream must still reproduce fresh-simulation output exactly.
func TestRunnerPoolEquivalence(t *testing.T) {
	gc := trace.DefaultGenConfig()
	gc.Frames = 60
	cl, err := trace.Generate(gc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.ByteSliceStream(cl, trace.PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{ServerBuffer: 480, Rate: 33, Policy: drop.Greedy}
	fresh, err := core.Simulate(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := scheduleJSON(t, fresh)

	for i := 0; i < 4; i++ {
		r := core.AcquireRunner()
		// Dirty the arena with a different run first.
		if _, err := r.Run(st, core.Config{ServerBuffer: 96, Rate: 7, Policy: drop.Random(3)}); err != nil {
			t.Fatal(err)
		}
		got, err := r.Run(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gotJSON := scheduleJSON(t, got); !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("iteration %d: pooled runner schedule differs from fresh Simulate", i)
		}
		core.ReleaseRunner(r)
	}
}
