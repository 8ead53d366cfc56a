// Package adaptive implements an online renegotiated-CBR controller in the
// spirit of RCBR (Grossglauser, Keshav and Tse; cited by the paper's
// introduction as the "renegotiation protocols" alternative to smoothing).
//
// The sender still smooths through a buffer, but instead of one fixed link
// rate it may request a new reservation at window boundaries, based purely
// on causal measurements: the arrival rate over the last window and the
// current buffer occupancy. Each change costs signalling, so the
// controller applies a dead band. The interesting tradeoff — reproduced by
// the "adaptive" experiment — is renegotiation frequency versus reserved
// bandwidth versus loss.
package adaptive

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/drop"
	"repro/internal/stream"
)

// Config tunes the controller.
type Config struct {
	// Window is the number of steps between renegotiation opportunities.
	Window int
	// Headroom is the multiplicative slack on the measured arrival rate
	// (>= 1). Default 1.1.
	Headroom float64
	// HighWater is the buffer-occupancy fraction above which the
	// controller additionally reserves enough to drain the excess within
	// one window. Default 0.7.
	HighWater float64
	// Deadband is the minimum relative change that triggers an actual
	// renegotiation. Default 0.1.
	Deadband float64
	// MinRate floors the reservation. Default 1.
	MinRate int
}

func (c Config) withDefaults() (Config, error) {
	if c.Window <= 0 {
		return c, fmt.Errorf("adaptive: non-positive window %d", c.Window)
	}
	if c.Headroom == 0 {
		c.Headroom = 1.1
	}
	if c.Headroom < 1 {
		return c, fmt.Errorf("adaptive: headroom %v < 1", c.Headroom)
	}
	if c.HighWater == 0 {
		c.HighWater = 0.7
	}
	if c.HighWater <= 0 || c.HighWater > 1 {
		return c, fmt.Errorf("adaptive: high water %v outside (0, 1]", c.HighWater)
	}
	if c.Deadband == 0 {
		c.Deadband = 0.1
	}
	if c.Deadband < 0 {
		return c, fmt.Errorf("adaptive: negative dead band %v", c.Deadband)
	}
	if c.MinRate <= 0 {
		c.MinRate = 1
	}
	return c, nil
}

// Controller decides reservations from causal measurements.
type Controller struct {
	cfg        Config
	rate       int
	windowArr  int
	sinceRenew int
	changes    int
}

// NewController returns a controller starting at the given initial rate.
func NewController(cfg Config, initialRate int) (*Controller, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if initialRate < cfg.MinRate {
		initialRate = cfg.MinRate
	}
	return &Controller{cfg: cfg, rate: initialRate}, nil
}

// Rate returns the current reservation.
func (c *Controller) Rate() int { return c.rate }

// Changes returns the number of renegotiations so far.
func (c *Controller) Changes() int { return c.changes }

// Tick observes one step (bytes that arrived, buffer occupancy and
// capacity) and returns the reservation to use for the NEXT step, which
// changes only at window boundaries and only outside the dead band.
func (c *Controller) Tick(arrived, occupancy, capacity int) int {
	c.windowArr += arrived
	c.sinceRenew++
	if c.sinceRenew < c.cfg.Window {
		return c.rate
	}
	measured := float64(c.windowArr) / float64(c.cfg.Window)
	target := measured * c.cfg.Headroom
	if capacity > 0 && float64(occupancy) > c.cfg.HighWater*float64(capacity) {
		// Drain the excess above the high-water mark within one window.
		excess := float64(occupancy) - c.cfg.HighWater*float64(capacity)
		target += excess / float64(c.cfg.Window)
	}
	want := int(target + 0.999999)
	if want < c.cfg.MinRate {
		want = c.cfg.MinRate
	}
	if rel(want, c.rate) > c.cfg.Deadband {
		c.rate = want
		c.changes++
	}
	c.windowArr = 0
	c.sinceRenew = 0
	return c.rate
}

func rel(a, b int) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b <= 0 {
		return 1
	}
	return float64(d) / float64(b)
}

// Result summarizes an adaptive run (server side, per the Section 4 model).
type Result struct {
	// Renegotiations is the number of rate changes.
	Renegotiations int
	// PeakRate and MeanReserved describe the reservation process.
	PeakRate     int
	MeanReserved float64
	// Benefit is the weight of transmitted slices; WeightedLoss its
	// complement as a fraction of the offered weight.
	Benefit      float64
	WeightedLoss float64
	// Utilization is bytes sent / bytes reserved.
	Utilization float64
	// Steps is the run length.
	Steps int
}

// Run drives the generic server with the controller over the whole stream:
// the buffer and drop policy work exactly as in the paper; only the drain
// rate renegotiates. The initial reservation is the first window's
// arrivals divided by the window (bootstrapped optimistically at MinRate).
func Run(st *stream.Stream, buffer int, cfg Config, policy drop.Factory) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if buffer <= 0 {
		return nil, fmt.Errorf("adaptive: non-positive buffer %d", buffer)
	}
	if policy == nil {
		policy = drop.Greedy
	}
	ctl, err := NewController(cfg, cfg.MinRate)
	if err != nil {
		return nil, err
	}
	server := core.NewServer(buffer, ctl.Rate(), policy(), core.ServerOptions{})

	res := &Result{}
	var reserved, sent int64
	var benefit float64
	for t := 0; t <= st.Horizon() || !server.Empty(); t++ {
		arrived := st.BytesAt(t)
		stepRes := server.Step(t, st.RunsAt(t))
		for _, b := range stepRes.Sent {
			first, end := b.Finished()
			for id := first; id < end; id++ {
				benefit += st.Slice(id).Weight
			}
		}
		reserved += int64(server.Rate())
		sent += int64(stepRes.SentBytes)
		if server.Rate() > res.PeakRate {
			res.PeakRate = server.Rate()
		}
		server.SetRate(ctl.Tick(arrived, stepRes.Occupancy, buffer))
		res.Steps++
		if res.Steps > st.Horizon()+st.TotalBytes()+16 {
			return nil, fmt.Errorf("adaptive: run failed to terminate by step %d", res.Steps)
		}
	}
	res.Renegotiations = ctl.Changes()
	res.Benefit = benefit
	if tw := st.TotalWeight(); tw > 0 {
		res.WeightedLoss = (tw - benefit) / tw
	}
	if res.Steps > 0 {
		res.MeanReserved = float64(reserved) / float64(res.Steps)
	}
	if reserved > 0 {
		res.Utilization = float64(sent) / float64(reserved)
	}
	return res, nil
}
