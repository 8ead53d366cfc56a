package admission

import (
	"fmt"
	"sync/atomic"
)

// Gate is the online form of the Chernoff admission test for a front
// door that must answer per-connection, not per-trace: one search over
// the tilt (MaxStreams) at construction fixes the largest admissible
// stream count K* for the capacity and overflow target, and each arriving
// session then pays a single atomic compare against the live count — as
// an access point deploys the criterion: demand statistics and capacity
// are fixed at provisioning time, only the occupancy moves.
type Gate struct {
	maxStreams int
	active     atomic.Int64
}

// NewGate precomputes the admissible-stream ceiling for per-step demand
// samples on capacity C with target per-step overflow probability eps,
// capped at kMax. The returned gate admits a session iff the live count
// is below that ceiling.
func NewGate(samples []int, C, eps float64, kMax int) (*Gate, error) {
	k, err := MaxStreams(samples, C, eps, kMax)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("admission: capacity %v admits no streams at eps %v", C, eps)
	}
	return &Gate{maxStreams: k}, nil
}

// MaxStreams returns the precomputed admissible-stream ceiling K*.
func (g *Gate) MaxStreams() int { return g.maxStreams }

// Active returns the number of admitted, unreleased sessions.
func (g *Gate) Active() int { return int(g.active.Load()) }

// TryAdmit admits one session if the live count is below the ceiling,
// incrementing the count and the package admit counter; a refusal
// increments the reject counter. Safe from any goroutine.
func (g *Gate) TryAdmit() bool {
	for {
		cur := g.active.Load()
		if cur >= int64(g.maxStreams) {
			rejectCount.Add(1)
			return false
		}
		if g.active.CompareAndSwap(cur, cur+1) {
			admitCount.Add(1)
			return true
		}
	}
}

// Release returns one admitted session's slot. Callers pair every
// successful TryAdmit with exactly one Release when the session ends.
func (g *Gate) Release() {
	if g.active.Add(-1) < 0 {
		panic("admission: Gate.Release without TryAdmit")
	}
}
