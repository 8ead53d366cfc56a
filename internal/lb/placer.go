package lb

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/netstream"
	"repro/internal/obs"
)

// backend is one smoothd target's shared placement state. Placements,
// the maintenance loop and the shard reactors all touch it, so
// every field is an atomic; the placement table proper (which backend a
// session relays through) lives in the session structs the shards own.
type backend struct {
	idx       int
	addr      string
	statusURL string // "" = no scraping for this backend

	// active counts sessions placed on (or dialing toward) this backend
	// from the LB's point of view — incremented at the placement
	// decision, decremented at retirement, so scoring always has a
	// fresh local floor even between scrapes.
	active atomic.Int64
	placed atomic.Uint64

	unhealthy   atomic.Bool
	drainManual atomic.Bool
	drainScrape atomic.Bool

	// Scraped state: last good /statusz sample and its stamp
	// (engine-monotonic nanos; 0 = never scraped).
	scrapeNanos  atomic.Int64
	scrapeActive atomic.Int64
	scrapeP99    atomic.Int64 // µs
	scrapeErrs   atomic.Uint64
}

// draining reports whether placement must avoid this backend.
func (b *backend) draining() bool {
	return b.drainManual.Load() || b.drainScrape.Load()
}

// replaceLimit bounds how many times one session is re-placed after dial
// or handshake failures, drains or an empty fleet before it fails.
const replaceLimit = 3

// place scores, dials and registers one session, re-placing it on
// failure or drain up to replaceLimit times. It runs on a goroutine of
// its own, counted on placeWG, and first waits for a placement slot.
func (e *Engine) place(s *session) {
	defer e.placeWG.Done()
	select {
	case e.placeSlots <- struct{}{}:
		defer func() { <-e.placeSlots }()
	case <-e.quit:
		e.failPlacement(s, errEngineClosed, e.monotonic())
		return
	}
	for {
		if e.closing.Load() {
			e.failPlacement(s, errEngineClosed, e.monotonic())
			return
		}
		b := e.pick()
		if b == nil {
			// Every backend is unhealthy or draining; bounded wait for a
			// probe to revive one.
			if s.retries >= replaceLimit {
				e.failPlacement(s, errNoBackend, e.monotonic())
				return
			}
			s.retries++
			select {
			case <-e.quit:
				e.failPlacement(s, errEngineClosed, e.monotonic())
				return
			case <-time.After(e.cfg.ProbeInterval):
			}
			continue
		}
		b.active.Add(1)
		err := e.dialBackend(s, b)
		if err == nil && b.draining() {
			// The drain landed between pick and handshake: hand the slot
			// back and re-place; the client has not seen an Accept from a
			// backend we must still forward (the Accept is only relayed
			// below on success), so the move is invisible.
			_ = s.backendConn.Close()
			s.backendConn = nil
			err = errBackendDrain
		}
		if err == nil {
			if err = e.forwardAccept(s); err == nil {
				err = s.adopt()
			}
			if err != nil {
				// The client side, or the socket hand-over, failed —
				// re-placing cannot help.
				b.active.Add(-1)
				e.failPlacement(s, err, e.monotonic())
				return
			}
			b.placed.Add(1)
			s.backend = b
			s.backendIdx = b.idx
			e.met.reg.GlobalInc(e.met.cPlaced)
			e.recs[0].Record(e.monotonic(), obs.EvPlace, s.id, int64(b.idx))
			sh := e.shards[int(s.id)%len(e.shards)]
			if !sh.Queue.Push(s) {
				b.active.Add(-1)
				e.failPlacement(s, errEngineClosed, e.monotonic())
			}
			return
		}
		b.active.Add(-1)
		if !errors.Is(err, errBackendDrain) {
			// A dial or handshake failure: quarantine the backend until a
			// probe brings it back.
			b.unhealthy.Store(true)
		}
		e.met.reg.GlobalInc(e.met.cReplaced)
		e.recs[0].Record(e.monotonic(), obs.EvReplace, s.id, int64(b.idx))
		s.retries++
		if s.retries > replaceLimit {
			e.failPlacement(s, err, e.monotonic())
			return
		}
	}
}

// pick returns the healthy, non-draining backend with the best headroom
// score, ties broken by the lowest index (deterministic). nil when no
// backend is placeable.
func (e *Engine) pick() *backend {
	now := e.monotonic()
	var best *backend
	bestScore := int64(0)
	for _, b := range e.backends {
		if b.unhealthy.Load() || b.draining() {
			continue
		}
		if sc := e.score(b, now); best == nil || sc > bestScore {
			best, bestScore = b, sc
		}
	}
	return best
}

// score rates one backend in signed permille: buffer headroom against
// backendSlots minus a step-lag penalty of one permille per
// millisecond of scraped p99 shard-step duration. The active count is
// the max of the LB-local view and the last scrape (when fresh), so a
// backend loaded by another front tier still scores low.
func (e *Engine) score(b *backend, now int64) int64 {
	active := b.active.Load()
	if t := b.scrapeNanos.Load(); t != 0 && now-t < int64(3*scrapeInterval) {
		if sa := b.scrapeActive.Load(); sa > active {
			active = sa
		}
	}
	headroom := (backendSlots - active) * 1000 / backendSlots
	return headroom - b.scrapeP99.Load()/1000
}

// headroomPermille is score's headroom term alone, for the per-backend
// gauge.
func (e *Engine) headroomPermille(b *backend) int64 {
	return (backendSlots - b.active.Load()) * 1000 / backendSlots
}

// dialBackend opens the backend connection and runs the upstream half of
// the handshake: forward the client's Hello, read the Accept. The Accept
// is parked on the session for forwardAccept.
func (e *Engine) dialBackend(s *session, b *backend) error {
	conn, err := net.DialTimeout("tcp", b.addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("lb: dial backend %d: %w", b.idx, err)
	}
	// The conn is adopted (or closed) after the handshake, so its deadline
	// is never cleared.
	_ = conn.SetDeadline(time.Now().Add(e.cfg.HandshakeTimeout))
	hello := s.hello
	if _, err := (netstream.Msg{Hello: &hello}).WriteTo(conn); err != nil {
		_ = conn.Close()
		return fmt.Errorf("lb: forwarding hello to backend %d: %w", b.idx, err)
	}
	msg, err := netstream.ReadMsg(conn)
	if err != nil {
		_ = conn.Close()
		return fmt.Errorf("lb: reading accept from backend %d: %w", b.idx, err)
	}
	if msg.Accept == nil {
		_ = conn.Close()
		return fmt.Errorf("lb: backend %d answered without an accept", b.idx)
	}
	if err := msg.Accept.Check(hello); err != nil {
		_ = conn.Close()
		return fmt.Errorf("lb: backend %d: %w", b.idx, err)
	}
	s.backendConn = conn
	s.accept = *msg.Accept
	return nil
}

// forwardAccept relays the backend's Accept to the client, completing
// the client's handshake. A failure here is terminal for the session —
// the client is gone — never a reason to re-place.
func (e *Engine) forwardAccept(s *session) error {
	_ = s.clientConn.SetWriteDeadline(time.Now().Add(e.cfg.HandshakeTimeout))
	accept := s.accept
	if _, err := (netstream.Msg{Accept: &accept}).WriteTo(s.clientConn); err != nil {
		return fmt.Errorf("lb: forwarding accept to client: %w", err)
	}
	return nil
}

// failPlacement finishes a session that never reached a shard.
func (e *Engine) failPlacement(s *session, err error, now int64) {
	s.release()
	e.met.reg.GlobalInc(e.met.cPlaceFailed)
	e.recs[0].Record(now, obs.EvError, s.id, int64(s.retries))
	e.sessionDone(s, err, now)
}

// maintain is the tier's slow loop: scrape configured backend /statusz
// endpoints for headroom and step-lag signals, and probe unhealthy
// backends back to life. One goroutine, off every hot path.
func (e *Engine) maintain() {
	defer e.maintWG.Done()
	scrape := time.NewTicker(scrapeInterval)
	probe := time.NewTicker(e.cfg.ProbeInterval)
	defer scrape.Stop()
	defer probe.Stop()
	for {
		select {
		case <-e.quit:
			return
		case <-scrape.C:
			for _, b := range e.backends {
				if b.statusURL != "" {
					e.scrapeBackend(b)
				}
			}
		case <-probe.C:
			for _, b := range e.backends {
				if b.unhealthy.Load() {
					e.probeBackend(b)
				}
			}
		}
	}
}

// statuszDoc is the slice of diag's /statusz JSON the scorer reads.
type statuszDoc struct {
	Metrics struct {
		Active   int64 `json:"serve_sessions_active"`
		Draining int64 `json:"serve_draining"`
		StepDur  struct {
			P99 int64 `json:"p99"`
		} `json:"serve_step_duration_us"`
	} `json:"metrics"`
}

// scrapeBackend refreshes one backend's scored signals from its diag
// /statusz endpoint. Scrape failures only age the previous sample out
// (score falls back to the LB-local active count); they never mark the
// backend unhealthy — the data path, not the diag port, decides health.
func (e *Engine) scrapeBackend(b *backend) {
	resp, err := e.httpc.Get(b.statusURL)
	if err != nil {
		b.scrapeErrs.Add(1)
		return
	}
	if resp.StatusCode != http.StatusOK {
		// An error page whose body happens to parse (a 500 rendering
		// "{}") must not pass for a fresh sample — it would zero the
		// scored signals and clear drainScrape on a draining backend.
		_ = resp.Body.Close()
		b.scrapeErrs.Add(1)
		return
	}
	var doc statuszDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	_ = resp.Body.Close()
	if err != nil {
		b.scrapeErrs.Add(1)
		return
	}
	b.scrapeActive.Store(doc.Metrics.Active)
	b.scrapeP99.Store(doc.Metrics.StepDur.P99)
	wasDraining := b.drainScrape.Load()
	nowDraining := doc.Metrics.Draining != 0
	b.drainScrape.Store(nowDraining)
	if nowDraining && !wasDraining && !b.drainManual.Load() {
		e.met.reg.GlobalInc(e.met.cDrains)
		e.recs[0].Record(e.monotonic(), obs.EvBackendDrain, uint64(b.idx), 1)
	}
	b.scrapeNanos.Store(e.monotonic())
}

// probeBackend health-checks a quarantined backend with a bare TCP dial
// and lifts the quarantine on success.
func (e *Engine) probeBackend(b *backend) {
	conn, err := net.DialTimeout("tcp", b.addr, dialTimeout)
	if err != nil {
		return
	}
	_ = conn.Close()
	b.unhealthy.Store(false)
}
