package trace

import (
	"fmt"

	"repro/internal/stream"
)

// MPEG decode dependencies: losing a frame hurts more than its own bytes,
// because other frames reference it. The paper motivates value-aware
// dropping by noting that "the quality of the output does not degrade
// linearly with the quantity of lost data"; this file quantifies that with
// the standard MPEG-1 reference structure:
//
//   - an I frame is self-contained;
//   - a P frame references the closest preceding anchor (I or P);
//   - a B frame references both the closest preceding AND the closest
//     following anchor.
//
// A delivered frame is *decodable* only if all frames it (transitively)
// references were delivered too.

// DecodeStats summarizes dependency-aware playback quality.
type DecodeStats struct {
	// Delivered counts frames whose own data arrived.
	Delivered int
	// Decodable counts delivered frames whose references are decodable.
	Decodable int
	// Poisoned counts delivered frames that are useless because a
	// reference was lost (Delivered - Decodable).
	Poisoned int
	// PerType breaks Decodable down by frame type.
	PerType map[FrameType]int
	// Total is the clip length.
	Total int
}

// DecodableFraction returns Decodable / Total (0 for an empty clip).
func (d DecodeStats) DecodableFraction() float64 {
	if d.Total == 0 {
		return 0
	}
	return float64(d.Decodable) / float64(d.Total)
}

// Decodability evaluates which frames of the clip are actually usable by a
// decoder, given which frames were delivered (by index). delivered may be
// nil, meaning everything was delivered.
func Decodability(c *Clip, delivered func(frameIndex int) bool) DecodeStats {
	n := len(c.Frames)
	stats := DecodeStats{Total: n, PerType: make(map[FrameType]int, 3)}
	if n == 0 {
		return stats
	}
	decodable := DecodableFrames(c, delivered)
	del := func(i int) bool { return delivered == nil || delivered(i) }
	for i, f := range c.Frames {
		if del(i) {
			stats.Delivered++
		}
		if decodable[i] {
			stats.Decodable++
			stats.PerType[f.Type]++
		}
	}
	stats.Poisoned = stats.Delivered - stats.Decodable
	return stats
}

// DecodableFrames returns, per frame, whether a decoder could actually use
// it given the delivery predicate (nil = everything delivered).
func DecodableFrames(c *Clip, delivered func(frameIndex int) bool) []bool {
	n := len(c.Frames)
	if n == 0 {
		return nil
	}
	del := func(i int) bool { return delivered == nil || delivered(i) }

	// decodable[i] for anchors is computed in one forward pass: an anchor
	// chain breaks at the first lost or poisoned anchor and heals at the
	// next delivered I frame.
	decodable := make([]bool, n)
	prevAnchorOK := false
	for i, f := range c.Frames {
		switch f.Type {
		case I:
			decodable[i] = del(i)
			prevAnchorOK = decodable[i]
		case P:
			decodable[i] = del(i) && prevAnchorOK
			prevAnchorOK = decodable[i]
		}
	}
	// B frames need the following anchor as well: a backward sweep
	// tracking the next anchor's decodability.
	nextAnchorOK := false
	prevOK := make([]bool, n) // decodability of the closest preceding anchor
	ok := false
	for i, f := range c.Frames {
		prevOK[i] = ok
		if f.Type == I || f.Type == P {
			ok = decodable[i]
		}
	}
	for i := n - 1; i >= 0; i-- {
		f := c.Frames[i]
		if f.Type == I || f.Type == P {
			nextAnchorOK = decodable[i]
			continue
		}
		decodable[i] = del(i) && prevOK[i] && nextAnchorOK
	}
	return decodable
}

// GlitchProfile quantifies how the viewer experiences the losses: a glitch
// is a maximal run of consecutive undecodable frames (frozen or corrupted
// playback). Two schedules with identical frame-loss counts can differ
// enormously here — which is the whole point of value-aware dropping.
type GlitchProfile struct {
	// Glitches is the number of maximal undecodable runs.
	Glitches int
	// Longest is the longest run, in frames.
	Longest int
	// Mean is the mean run length (0 if there are no glitches).
	Mean float64
	// BadFrames is the total number of undecodable frames.
	BadFrames int
	// PerKiloframe is glitches per 1000 frames.
	PerKiloframe float64
}

// DependencyWeights derives a per-frame weight map from the decode
// dependency structure itself, instead of the paper's fixed 12:8:1: each
// frame's weight per byte is proportional to the total size of the frames
// that become undecodable if it is lost (itself included), normalized so
// that B frames have weight 1. This is the "discard the least damaging
// data" idea of Section 1 taken to its logical end; the "smartweights"
// experiment measures whether it buys additional decodable frames over
// 12:8:1.
//
// The returned slice is indexed by frame; use it with WeightedStream.
func DependencyWeights(c *Clip) []float64 {
	n := len(c.Frames)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	// damage[i] = bytes rendered undecodable by losing frame i alone,
	// relative to the full-delivery baseline (a clip may have frames that
	// are undecodable even with everything delivered, e.g. a trailing B
	// with no following anchor).
	damage := make([]float64, n)
	baseline := DecodableFrames(c, nil)
	// live[k] is the baseline-decodable bytes among frames 0..k-1. The
	// sizes are integers, so the difference of two prefixes is exactly the
	// float64 sum of the frames between them, added one at a time.
	live := make([]int, n+1)
	for k, f := range c.Frames {
		live[k+1] = live[k]
		if baseline[k] {
			live[k+1] += f.Size
		}
	}
	// Losing a B frame hurts only itself. Losing anchor i kills exactly the
	// frames strictly between the anchor before it and the next I frame
	// after it: the B frames before i lose their following reference, the
	// P frames after it their chain, which only an I frame heals, and the B
	// frames after it a preceding reference. One backward pass finds the
	// next I frame, one forward pass the anchor before.
	nextI := make([]int, n)
	next := n
	for i := n - 1; i >= 0; i-- {
		nextI[i] = next
		if c.Frames[i].Type == I {
			next = i
		}
	}
	prevAnchor := -1
	for i, f := range c.Frames {
		if f.Type != I && f.Type != P {
			if baseline[i] {
				damage[i] = float64(f.Size)
			}
			continue
		}
		damage[i] = float64(live[nextI[i]] - live[prevAnchor+1])
		prevAnchor = i
	}
	// Normalize to weight-per-byte with B frames at 1.
	for i, f := range c.Frames {
		out[i] = damage[i] / float64(f.Size)
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// WeightedStream converts the clip into a whole-frame-slice stream using an
// explicit per-frame weight-per-byte vector (e.g. from DependencyWeights).
func WeightedStream(c *Clip, perByte []float64) (*stream.Stream, error) {
	if len(perByte) != len(c.Frames) {
		return nil, fmt.Errorf("trace: %d weights for %d frames", len(perByte), len(c.Frames))
	}
	b := stream.NewBuilder()
	for i, f := range c.Frames {
		b.Add(f.Index, f.Size, perByte[i]*float64(f.Size))
	}
	return b.Build()
}

// Glitches computes the glitch profile of a delivery.
func Glitches(c *Clip, delivered func(frameIndex int) bool) GlitchProfile {
	var p GlitchProfile
	n := len(c.Frames)
	if n == 0 {
		return p
	}
	decodable := DecodableFrames(c, delivered)
	run := 0
	for i := 0; i <= n; i++ {
		if i < n && !decodable[i] {
			run++
			continue
		}
		if run > 0 {
			p.Glitches++
			p.BadFrames += run
			if run > p.Longest {
				p.Longest = run
			}
			run = 0
		}
	}
	if p.Glitches > 0 {
		p.Mean = float64(p.BadFrames) / float64(p.Glitches)
	}
	p.PerKiloframe = 1000 * float64(p.Glitches) / float64(n)
	return p
}
