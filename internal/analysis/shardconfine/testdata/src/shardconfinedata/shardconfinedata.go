// Package shardconfinedata seeds confinement violations around a marked
// shard type, next to the sanctioned ownership idioms.
package shardconfinedata

import "sync"

// shard is goroutine-confined: one reactor goroutine owns each instance.
//
//smoothvet:confined
type shard struct {
	mu       sync.Mutex //smoothvet:shared
	incoming chan int   //smoothvet:shared
	draining bool
	sessions []int
	count    int
}

type engine struct {
	shards []*shard
}

// newEngine constructs shards and hands each to its goroutine.
func newEngine(n int) *engine {
	e := &engine{}
	for i := 0; i < n; i++ {
		sh := &shard{incoming: make(chan int)}
		sh.sessions = make([]int, 0, 8) // ok: fresh value, construction
		//smoothvet:transfer
		go sh.run()
		e.shards = append(e.shards, sh)
	}
	return e
}

func (e *engine) launchUnmarked() {
	sh := &shard{}
	go sh.run() // want `go sh\.run hands the confined receiver to a new goroutine without //smoothvet:transfer`
}

// run owns its receiver.
func (sh *shard) run() {
	sh.count++         // ok: receiver is owned
	sh.draining = true // ok
}

// crossStore writes another shard's state: the classic violation.
func (e *engine) crossStore(i int) {
	e.shards[i].draining = true // want `store to field draining of confined \*shard through a foreign reference`
	sh := e.shards[i]
	sh.count++ // want `store to field count of confined \*shard through a foreign reference`
	sh.mu.Lock()
	sh.sessions = nil // want `store to field sessions of confined \*shard through a foreign reference`
	sh.mu.Unlock()
}

// sharedFieldOK: cross-goroutine traffic through marked fields is fine.
func (e *engine) sharedFieldOK(i int, v int) {
	sh := e.shards[i]
	sh.incoming <- v // ok: shared channel field
	sh.mu.Lock()     // ok: shared mutex field
	sh.mu.Unlock()
}

// flowJoin: a reference that is foreign on one path is foreign at the join.
func (e *engine) flowJoin(mine *shard, steal bool) {
	sh := mine
	if steal {
		sh = e.shards[0]
	}
	sh.count++ // want `store to field count of confined \*shard through a foreign reference`
}

// loopFlow: the foreign binding flows around the loop back edge.
func (e *engine) loopFlow() {
	var sh *shard
	for i := 0; i < 4; i++ {
		if sh != nil {
			sh.count++ // want `store to field count of confined \*shard through a foreign reference`
		}
		sh = e.shards[i]
	}
}

// rangeForeign: ranging over a shared slice yields foreign references.
func (e *engine) rangeForeign() {
	for _, sh := range e.shards {
		sh.draining = true // want `store to field draining of confined \*shard through a foreign reference`
	}
}

// rangeOwned: ranging over a locally built slice keeps ownership.
func rangeOwned(n int) []*shard {
	shards := make([]*shard, 0, n)
	for i := 0; i < n; i++ {
		shards = append(shards, &shard{})
	}
	for _, sh := range shards {
		sh.count = i0() // ok: owned via local slice
	}
	return shards
}

func i0() int { return 0 }

// copiedForeign: a local that holds a shared slice of shards, a copy of it
// or an append to it is as foreign as the slice.
func (e *engine) copiedForeign() {
	shards := e.shards
	for _, sh := range shards {
		sh.draining = true // want `store to field draining of confined \*shard through a foreign reference`
	}
	var first = e.shards[:1]
	first[0].count = 1 // want `store to field count of confined \*shard through a foreign reference`
	grown := append([]*shard{}, e.shards...)
	grown[0].count = 2 // want `store to field count of confined \*shard through a foreign reference`
	own := append([]*shard{}, &shard{})
	own[0].count = 3 // ok: built here
}

// closureCapture: goroutine closures must not capture confined values.
func (sh *shard) closureCapture() {
	go func() { // want `goroutine closure captures confined value sh without //smoothvet:transfer`
		sh.count++
	}()
}

// sendUnmarked: confined values cross channels only with a transfer marker.
func sendUnmarked(ch chan *shard, sh *shard) {
	ch <- sh // want `send of confined \*shard over a channel without //smoothvet:transfer`
}

func sendMarked(ch chan *shard, sh *shard) {
	ch <- sh //smoothvet:transfer
}

// afterHandoff: the sender must not touch the value past the hand-off.
func afterHandoff(ch chan *shard) {
	sh := &shard{}
	sh.count = 1 // ok: still owned
	ch <- sh     //smoothvet:transfer
	sh.count = 2 // want `store to field count of confined \*shard through a foreign reference`
}

// receiveOwns: the receiving goroutine owns what it takes off the channel.
func receiveOwns(ch chan *shard) {
	sh := <-ch
	sh.count++ // ok: transferred in
	for got := range ch {
		got.draining = true // ok: transferred in
	}
}

// shardMetrics mirrors the observability layer's per-shard slot row: the
// live slots are plain memory owned by the shard goroutine, the published
// mirror is the sanctioned cross-goroutine surface.
//
//smoothvet:confined
type shardMetrics struct {
	live []uint64
	pub  []uint64 //smoothvet:shared
}

type registry struct {
	rows []*shardMetrics
}

// recordOwned: the shard goroutine bumping its own slot is the hot path.
func recordOwned(m *shardMetrics, slot int) {
	m.live[slot]++ // ok: receiver-owned row
}

// scrapeStore: a scraper incrementing another shard's live slot is the
// exact bug the metrics layer exists to prevent — merge at scrape instead.
func (r *registry) scrapeStore(i, slot int) {
	r.rows[i].live[slot]++ // want `store to field live of confined \*shardMetrics through a foreign reference`
}

// scrapeSharedOK: the published mirror is marked shared; scrape-side
// writes through it (atomics in the real layer) are sanctioned.
func (r *registry) scrapeSharedOK(i, slot int, v uint64) {
	r.rows[i].pub[slot] = v // ok: shared field
}

// relayShard mirrors the front tier's relay shard: the fd-indexed
// placement table maps live fds to sessions and is touched only by the
// shard's reactor goroutine; placements arrive through the shared
// incoming queue.
//
//smoothvet:confined
type relayShard struct {
	mu       sync.Mutex //smoothvet:shared
	incoming []int      //smoothvet:shared
	table    []int
}

type frontTier struct {
	relays []*relayShard
}

// placeDirect: a placement worker writing another shard's placement
// table directly instead of queueing through incoming — the cross-shard
// write the front tier's enqueue/admit split exists to prevent.
func (e *frontTier) placeDirect(i, fd int) {
	e.relays[i].table = append(e.relays[i].table, fd) // want `store to field table of confined \*relayShard through a foreign reference`
}

// placeQueued is the sanctioned hand-off: append to the shared queue
// under the shared mutex; the owning goroutine moves it into the table.
func (e *frontTier) placeQueued(i, fd int) {
	sh := e.relays[i]
	sh.mu.Lock()
	sh.incoming = append(sh.incoming, fd) // ok: shared field under the shared mutex
	sh.mu.Unlock()
}

// drainOwned: the reactor goroutine moving queued placements into its
// own table.
func (sh *relayShard) drainOwned() {
	sh.mu.Lock()
	pend := sh.incoming
	sh.incoming = nil // ok: shared field
	sh.mu.Unlock()
	sh.table = append(sh.table, pend...) // ok: receiver-owned
}

// counters is plain state a shard owns through a field.
type counters struct{ live []int }

func (m *counters) Inc(i int)    { m.live[i]++ }
func (m counters) Get(i int) int { return m.live[i] }
func (sh *shard) reset()         { sh.count = 0 }
func (sh *shard) peek() int      { return sh.count }
func (sh shard) size() int       { return len(sh.sessions) }

// metShard carries its counters in a plain field.
//
//smoothvet:confined
type metShard struct {
	Met counters
	mu  sync.Mutex //smoothvet:shared
	// peer is a sibling, owned by another goroutine; slots is this
	// shard's own.
	peer  *shard
	slots *shard //smoothvet:confined
}

type metEngine struct {
	mets   []*metShard
	shards []*shard
}

// crossCall: a pointer-receiver method mutates as surely as a store.
func (e *metEngine) crossCall() int {
	e.mets[0].Met.Inc(1) // want `call to pointer-receiver method Inc on field Met of confined \*metShard through a foreign reference`
	sh := e.shards[0]
	sh.reset()                // want `call to pointer-receiver method reset on confined \*shard through a foreign reference`
	n := sh.peek()            // want `call to pointer-receiver method peek on confined \*shard through a foreign reference`
	n += sh.size()            // ok: value receiver, works on a copy
	n += e.mets[0].Met.Get(0) // ok: value receiver
	e.mets[0].mu.Lock()       // ok: shared field
	e.mets[0].mu.Unlock()
	return n
}

// ownCall: calls through an owned reference are the owner's business.
func (m *metShard) ownCall() {
	m.Met.Inc(0) // ok: receiver is owned
}

// pointerFields: a reference field reaches a sibling unless it is marked
// as the holder's own.
func (m *metShard) pointerFields() {
	m.peer.count = 1 // want `store to field count of confined \*shard through a foreign reference`
	m.peer.reset()   // want `call to pointer-receiver method reset on confined \*shard through a foreign reference`
	m.slots.count = 1
	m.slots.reset() // ok: marked as the holder's own
}

// quiescent: a //smoothvet:transfer assignment or range takes ownership
// from a goroutine that has exited.
func (e *metEngine) quiescent() int {
	//smoothvet:transfer the engine's goroutines have exited
	sh := e.shards[0]
	sh.reset() // ok: handed over
	n := 0
	//smoothvet:transfer the engine's goroutines have exited
	for _, other := range e.shards {
		n += other.peek() // ok: handed over
	}
	for _, other := range e.shards {
		n += other.peek() // want `call to pointer-receiver method peek on confined \*shard through a foreign reference`
	}
	return n
}
