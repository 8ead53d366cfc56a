package reactor

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

var (
	errQuiet  = errors.New("test: quiet too long")
	errClosed = errors.New("test: loop closed")
)

// sess is the smallest session: a Slot, an fd and the stamp it last spoke.
type sess struct {
	Slot
	fd   int
	last int64
}

// harness is a Loop over sess with a Handler that does what the engines'
// handlers do to the loop — Add on Admit, Remove on Retire, Overdue in
// Expired — and logs every call.
type harness struct {
	Loop[*sess]
	reg     *obs.Registry
	closing atomic.Bool
	limit   time.Duration
	log     []string
	seen    map[*sess]int // Expired calls per session
	retired map[*sess]error
}

func newHarness(limit time.Duration) *harness {
	var b obs.Builder
	active := b.Gauge("test_active", "sessions in the table")
	wakes := b.Counter("test_wakes_total", "wakes")
	wakeEvents := b.Histogram("test_wake_events", "ready fds per wake")
	h := &harness{reg: obs.Build(&b, 1), limit: limit, seen: map[*sess]int{}, retired: map[*sess]error{}}
	h.Loop = Loop[*sess]{
		Handler: h, Closing: &h.closing, ErrClosed: errClosed,
		Met: h.reg.Shard(0), Active: active, Wakes: wakes, WakeEvents: wakeEvents,
	}
	return h
}

func (h *harness) Admit(s *sess, now int64) {
	h.log = append(h.log, fmt.Sprintf("admit %d", s.fd))
	s.last = now
	h.Table.Add(s, s.fd)
}

func (h *harness) Ready(s *sess, fd int, events uint32, now int64) {
	h.log = append(h.log, fmt.Sprintf("ready %d", fd))
	s.last = now
}

func (h *harness) Expired(s *sess, now int64) error {
	h.seen[s]++
	if Overdue(h.limit, s.last, now) {
		return errQuiet
	}
	return nil
}

func (h *harness) Retire(s *sess, err error, now int64) {
	h.log = append(h.log, fmt.Sprintf("retire %d: %v", s.fd, err))
	if _, dup := h.retired[s]; dup {
		panic("session retired twice")
	}
	h.retired[s] = err
	h.Table.Remove(s, s.fd)
}

func (h *harness) activeGauge() uint64 { return h.reg.Snapshot(nil).Scalars[h.Active] }

// fill enters n sessions, fds 0..n-1, all last heard from at stamp last.
func (h *harness) fill(n int, last int64) []*sess {
	all := make([]*sess, n)
	for i := range all {
		all[i] = &sess{fd: i, last: last}
		h.Table.Add(all[i], i)
	}
	return all
}

// TestWakeOrder drives the wake body with chosen events and stamps: queued
// sessions are admitted before the wake's events are dispatched (so an
// event for a session admitted in the same wake is served), the sweep runs
// after dispatch (so a session that spoke in this wake is not retired by
// it), and a closing wake retires the live sessions, then the queued ones,
// each exactly once, and leaves the queue closed and the gauge at zero.
func TestWakeOrder(t *testing.T) {
	h := newHarness(10)
	a, b, c := &sess{fd: 3}, &sess{fd: 4}, &sess{fd: 5}
	h.Queue.Push(a)
	h.Queue.Push(b)
	if h.Wake([]Event{{Fd: 4, Events: In}, {Fd: 9, Events: In}}, 100) {
		t.Fatal("an open loop reported done")
	}
	want := []string{"admit 3", "admit 4", "ready 4"}
	if !reflect.DeepEqual(h.log, want) {
		t.Fatalf("first wake did %q, want %q (fd 9 is nobody's)", h.log, want)
	}
	if got := h.activeGauge(); got != 2 {
		t.Errorf("published active gauge %d, want 2", got)
	}

	// At stamp 111 both are overdue (limit 10, last heard at 100) unless
	// they speak: b does, in this very wake, and survives it.
	h.log = nil
	h.Wake([]Event{{Fd: 4, Events: In}}, 111)
	want = []string{"ready 4", "retire 3: " + errQuiet.Error()}
	if !reflect.DeepEqual(h.log, want) {
		t.Fatalf("second wake did %q, want %q", h.log, want)
	}

	h.log = nil
	h.Queue.Push(c)
	h.closing.Store(true)
	h.Queue.Push(&sess{fd: 6})
	if !h.Wake(nil, 112) {
		t.Fatal("a closing wake did not report done")
	}
	want = []string{"admit 5", "admit 6", "retire 6: " + errClosed.Error(), "retire 5: " + errClosed.Error(), "retire 4: " + errClosed.Error()}
	if !reflect.DeepEqual(h.log, want) {
		t.Fatalf("closing wake did %q, want %q", h.log, want)
	}
	if h.Queue.Push(&sess{fd: 7}) {
		t.Error("Push accepted after the closing wake")
	}
	if h.Table.Len() != 0 || h.activeGauge() != 0 {
		t.Errorf("after close: table %d, gauge %d, want 0 and 0", h.Table.Len(), h.activeGauge())
	}
}

// TestSettleNap is Run's rule as a table: an empty wait and a wait that
// blocked for settle or longer nap not at all; a loaded wait naps what is
// left of settle, never more (also on a clock that read backwards).
func TestSettleNap(t *testing.T) {
	const us = int64(time.Microsecond)
	for _, c := range []struct {
		name       string
		start, end int64
		ready      int
		want       time.Duration
	}{
		{"blocked exactly settle", 1000, 1000 + int64(settle), 3, 0},
		{"blocked longer than settle", 1000, 1000 + 10*int64(settle), 1, 0},
		{"blocked the whole waitMs", 0, waitMs * int64(time.Millisecond), 1, 0},
		{"returned at once", 1000, 1000, 5, settle},
		{"returned after 50µs", 1000, 1000 + 50*us, 1, settle - 50*time.Microsecond},
		{"returned 1ns short of settle", 0, int64(settle) - 1, 2, 1},
		{"clock read backwards", 1000, 900, 1, settle},
		{"empty at once", 1000, 1000, 0, 0},
		{"empty after a timeout", 0, waitMs * int64(time.Millisecond), 0, 0},
	} {
		got := settleNap(c.start, c.end, c.ready)
		if got != c.want {
			t.Errorf("%s: settleNap(%d, %d, %d) = %v, want %v", c.name, c.start, c.end, c.ready, got, c.want)
		}
		if got < 0 || got > settle {
			t.Errorf("%s: nap %v outside [0, settle]", c.name, got)
		}
	}
}

// TestWakeCounts: every wake, empty or not, counts one in Wakes and
// observes its ready-fd count in WakeEvents.
func TestWakeCounts(t *testing.T) {
	h := newHarness(0)
	h.fill(3, 0)
	h.Wake([]Event{{Fd: 0, Events: In}, {Fd: 1, Events: In}, {Fd: 2, Events: In}}, 1)
	h.Wake(nil, 2)
	h.Wake([]Event{{Fd: 1, Events: In}}, 3)
	snap := h.reg.Snapshot(nil)
	if got := snap.Scalars[h.Wakes]; got != 3 {
		t.Errorf("wakes counted %d, want 3", got)
	}
	hist := snap.Hists[h.WakeEvents]
	if hist.Count() != 3 || hist.Sum() != 4 || hist.Max() != 3 {
		t.Errorf("wake events: count %d, sum %d, max %d, want 3, 4, 3", hist.Count(), hist.Sum(), hist.Max())
	}
}

// quietHandler serves every call with nothing, so only the wake's own
// work can allocate.
type quietHandler struct{}

func (quietHandler) Admit(*sess, int64)              {}
func (quietHandler) Ready(*sess, int, uint32, int64) {}
func (quietHandler) Expired(*sess, int64) error      { return nil }
func (quietHandler) Retire(*sess, error, int64)      {}

// TestWakeDoesNotAllocate: a wake's dispatch, sweep, wake counters and
// publish touch no allocator.
func TestWakeDoesNotAllocate(t *testing.T) {
	h := newHarness(0)
	h.fill(4, 0)
	h.Handler = quietHandler{}
	events := []Event{{Fd: 0, Events: In}, {Fd: 3, Events: In | RdHup}}
	if n := testing.AllocsPerRun(100, func() { h.Wake(events, 1) }); n != 0 {
		t.Errorf("%v allocs per wake, want 0", n)
	}
}

// TestClosingWakeRetiresQueued: a session still in the queue when the loop
// closes — pushed after the last admit — is retired by the closing wake,
// once, without ever entering the table.
func TestClosingWakeRetiresQueued(t *testing.T) {
	h := newHarness(0)
	live := h.fill(1, 0)[0]
	late := &sess{fd: 7}
	h.closing.Store(true)
	// Drain runs first in the wake, so push from inside it: the Admit of an
	// earlier session is the one place a push lands after the drain.
	h.Queue.Push(&sess{fd: 6})
	h.Handler = pushOnAdmit{h, late}
	if !h.Wake(nil, 1) {
		t.Fatal("closing wake did not report done")
	}
	if err := h.retired[late]; err != errClosed {
		t.Errorf("queued session retired with %v, want %v", err, errClosed)
	}
	if err := h.retired[live]; err != errClosed {
		t.Errorf("live session retired with %v, want %v", err, errClosed)
	}
	if _, ok := h.Table.Lookup(7); ok {
		t.Error("the queued session entered the table")
	}
}

// pushOnAdmit is the harness handler, except that every Admit also queues
// one more session behind the drain that is being served.
type pushOnAdmit struct {
	*harness
	late *sess
}

func (p pushOnAdmit) Admit(s *sess, now int64) {
	p.harness.Admit(s, now)
	p.Queue.Push(p.late)
}

// TestIdleSweep drives the bounded sweep with a fake stamp. Sessions last
// spoke at stamp 0 (the quiet ones) or 1000 (the rest); every wake is at
// stamp 1001 with a limit of 100, so exactly the quiet ones are overdue.
func TestIdleSweep(t *testing.T) {
	const now = 1001
	ceilDiv := func(n int) int { return (n + sweepChunk - 1) / sweepChunk }
	cases := []struct {
		name  string
		n     int
		limit time.Duration
		quiet func(i int) bool
	}{
		{"one silent session at the end", 3*sweepChunk + 7, 100, func(i int) bool { return i == 3*sweepChunk+6 }},
		{"one silent session, table smaller than a chunk", 5, 100, func(i int) bool { return i == 2 }},
		{"every third silent: swap-removes all through the sweep", 2*sweepChunk + 100, 100, func(i int) bool { return i%3 == 0 }},
		{"all silent", sweepChunk + 1, 100, func(int) bool { return true }},
		{"limit zero disables", 2 * sweepChunk, 0, func(i int) bool { return i%2 == 0 }},
		{"negative limit disables", 2 * sweepChunk, -1, func(i int) bool { return i%2 == 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(tc.limit)
			all := h.fill(tc.n, 1000)
			wantRetired := 0
			for i, s := range all {
				if tc.quiet(i) {
					s.last = 0
					if tc.limit > 0 {
						wantRetired++
					}
				}
			}
			// ceil(n/chunk) wakes examine n sessions: one full lap, in
			// which every session is looked at — none skipped because a
			// retirement swapped it into a slot the cursor had passed —
			// and every overdue one is retired.
			for w := 0; w < ceilDiv(tc.n); w++ {
				h.Wake(nil, now)
			}
			for i, s := range all {
				if h.seen[s] == 0 {
					t.Fatalf("session %d was never examined in %d wakes", i, ceilDiv(tc.n))
				}
				err, gone := h.retired[s]
				if want := tc.quiet(i) && tc.limit > 0; gone != want {
					t.Fatalf("session %d (quiet %v): retired %v, want %v", i, tc.quiet(i), gone, want)
				} else if gone && err != errQuiet {
					t.Fatalf("session %d retired with %v", i, err)
				}
				if _, ok := h.Table.Lookup(i); ok == gone {
					t.Fatalf("session %d: in fd table %v after retired %v", i, ok, gone)
				}
			}
			if h.Table.Len() != tc.n-wantRetired || int(h.activeGauge()) != tc.n-wantRetired {
				t.Errorf("table %d, gauge %d, want %d", h.Table.Len(), h.activeGauge(), tc.n-wantRetired)
			}
		})
	}
}

// TestSweepCursorResumes: one wake examines exactly one chunk, and the next
// starts where it stopped — also after the table shrank under the cursor.
func TestSweepCursorResumes(t *testing.T) {
	h := newHarness(100)
	all := h.fill(2*sweepChunk+10, 0)
	examined := func() (n int) {
		for _, s := range all {
			n += h.seen[s]
		}
		return n
	}
	h.Wake(nil, 1)
	for i, s := range all {
		if want := i < sweepChunk; (h.seen[s] == 1) != want {
			t.Fatalf("after one wake session %d examined %d times", i, h.seen[s])
		}
	}
	h.Wake(nil, 1)
	for i, s := range all {
		if want := i < 2*sweepChunk; (h.seen[s] == 1) != want {
			t.Fatalf("after two wakes session %d examined %d times", i, h.seen[s])
		}
	}
	// Retire from outside the sweep until the cursor is past the end: the
	// next wake wraps to the start instead of indexing out of range.
	for _, s := range all[sweepChunk:] {
		h.Retire(s, nil, 1)
	}
	before := examined()
	h.Wake(nil, 1)
	if got := examined() - before; got != sweepChunk {
		t.Fatalf("wake after the shrink examined %d sessions, want %d", got, sweepChunk)
	}
}

func TestTable(t *testing.T) {
	var tb Table[*sess]
	a, b, never := &sess{fd: 1}, &sess{fd: 2}, &sess{fd: 3}
	tb.Add(a, 10, 5000) // two fds, one past the initial table size
	tb.Add(b, 11)
	for fd, want := range map[int]*sess{10: a, 5000: a, 11: b} {
		if got, ok := tb.Lookup(fd); !ok || got != want {
			t.Errorf("Lookup(%d) = %v, %v", fd, got, ok)
		}
	}
	for _, fd := range []int{-1, 0, 12, 1 << 20} {
		if _, ok := tb.Lookup(fd); ok {
			t.Errorf("Lookup(%d) found a session", fd)
		}
	}
	tb.Remove(never, 3, 10, -1) // not in the table; fd 10 is someone else's
	if got, ok := tb.Lookup(10); !ok || got != a || tb.Len() != 2 {
		t.Fatal("removing a stranger disturbed the table")
	}
	tb.Remove(a, 10, 5000)
	tb.Remove(a, 10, 5000) // twice is once
	if _, ok := tb.Lookup(5000); ok || tb.Len() != 1 || tb.At(0) != b {
		t.Fatalf("after removing a: len %d", tb.Len())
	}
	tb.Add(a, 10) // a retired session's Slot is reusable
	tb.Remove(b, 11)
	if tb.Len() != 1 || tb.At(0) != a {
		t.Fatal("swap-remove lost the moved session")
	}
}

func TestQueue(t *testing.T) {
	var q Queue[int]
	if got := q.Drain(); len(got) != 0 {
		t.Fatalf("empty queue drained %v", got)
	}
	for i := 0; i < 3; i++ {
		q.Push(i)
	}
	if got := q.Drain(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("drained %v", got)
	}
	q.Push(3)
	q.Push(4)
	if got := q.Close(); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Fatalf("Close returned %v, want the two undrained items", got)
	}
	if q.Push(5) {
		t.Error("Push accepted after Close")
	}
	if got := append(q.Drain(), q.Close()...); len(got) != 0 {
		t.Errorf("items surfaced after Close: %v", got)
	}
}

// TestQueueDrainDoesNotAllocate: steady state swaps two buffers.
func TestQueueDrainDoesNotAllocate(t *testing.T) {
	var q Queue[*sess]
	s := &sess{}
	round := func() {
		for i := 0; i < 64; i++ {
			q.Push(s)
		}
		if len(q.Drain()) != 64 {
			t.Fatal("short drain")
		}
	}
	round()
	round() // both buffers have grown
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("%v allocs per push/drain round, want 0", n)
	}
}

// TestQueueConcurrent: producers push while the consumer drains and then
// closes; every accepted item comes out exactly once, through Drain or
// through Close, and every refused one not at all. Run under -race.
func TestQueueConcurrent(t *testing.T) {
	const producers, each = 8, 2000
	var q Queue[int]
	var accepted [producers * each]atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				v := p*each + i
				accepted[v].Store(q.Push(v))
			}
		}()
	}
	seen := make([]int, producers*each)
	total := 0
	for total < producers*each/2 {
		for _, v := range q.Drain() {
			seen[v]++
			total++
		}
	}
	for _, v := range q.Close() {
		seen[v]++
	}
	wg.Wait()
	for v, n := range seen {
		if want := accepted[v].Load(); (n == 1) != want || n > 1 {
			t.Fatalf("item %d: accepted %v, seen %d times", v, want, n)
		}
	}
}
