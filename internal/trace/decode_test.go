package trace

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// gop builds a clip from a type pattern string, all frames size 1.
func gop(pattern string) *Clip {
	c := &Clip{}
	for i, r := range pattern {
		c.Frames = append(c.Frames, Frame{Index: i, Type: FrameType(r), Size: 1})
	}
	return c
}

// deliveredExcept returns a predicate that loses exactly the given indices.
func deliveredExcept(lost ...int) func(int) bool {
	bad := make(map[int]bool, len(lost))
	for _, i := range lost {
		bad[i] = true
	}
	return func(i int) bool { return !bad[i] }
}

func TestDecodabilityAllDelivered(t *testing.T) {
	c := gop("IBBPBBPBBPBBP")
	stats := Decodability(c, nil)
	if stats.Decodable != len(c.Frames) || stats.Poisoned != 0 {
		t.Errorf("full delivery: %+v", stats)
	}
	if stats.DecodableFraction() != 1 {
		t.Errorf("fraction = %v", stats.DecodableFraction())
	}
}

func TestDecodabilityLostBFrameIsLocal(t *testing.T) {
	c := gop("IBBPBBP")
	stats := Decodability(c, deliveredExcept(1)) // lose one B frame
	if stats.Decodable != 6 {
		t.Errorf("decodable = %d, want 6", stats.Decodable)
	}
	if stats.Poisoned != 0 {
		t.Errorf("a lost B frame poisoned others: %+v", stats)
	}
}

func TestDecodabilityLostPFramePoisons(t *testing.T) {
	// IBBPBBP: lose frame 3 (the first P). Then:
	//  - frames 4,5 (B) reference P3 (prev anchor for them is P3? order:
	//    I0 B1 B2 P3 B4 B5 P6: B4/B5 sit between P3 and P6) -> poisoned;
	//  - P6 references P3 -> poisoned;
	//  - B1/B2 reference I0 and P3 -> poisoned too.
	c := gop("IBBPBBP")
	stats := Decodability(c, deliveredExcept(3))
	if stats.Decodable != 1 { // only I0 survives
		t.Errorf("decodable = %d, want 1 (%+v)", stats.Decodable, stats)
	}
	if stats.Poisoned != 5 {
		t.Errorf("poisoned = %d, want 5", stats.Poisoned)
	}
}

func TestDecodabilityLostIFramePoisonsGOPUntilNextI(t *testing.T) {
	// Two GOPs: losing the first I poisons everything up to (not
	// including) the second I.
	c := gop("IBBP" + "IBBP")
	stats := Decodability(c, deliveredExcept(0))
	// Frames 1,2,3 poisoned; 4..7 fine.
	if stats.Decodable != 4 {
		t.Errorf("decodable = %d, want 4 (%+v)", stats.Decodable, stats)
	}
	if stats.PerType[I] != 1 || stats.PerType[P] != 1 || stats.PerType[B] != 2 {
		t.Errorf("per-type = %v", stats.PerType)
	}
}

func TestDecodabilityBAcrossGOPBoundary(t *testing.T) {
	// A trailing B frame whose following anchor is the next GOP's I:
	// losing that I kills the B.
	c := gop("IPB" + "IPB")
	stats := Decodability(c, deliveredExcept(3))
	// Lost I3. B2 references P1 (prev) and I3 (next) -> poisoned.
	// P4 references I3 -> poisoned; B5 references P4, and next anchor —
	// there is none after B5; with no following anchor delivered, B5 is
	// poisoned as well.
	if stats.Decodable != 2 { // I0, P1
		t.Errorf("decodable = %d, want 2 (%+v)", stats.Decodable, stats)
	}
}

func TestDecodabilityEmptyClip(t *testing.T) {
	stats := Decodability(&Clip{}, nil)
	if stats.Total != 0 || stats.DecodableFraction() != 0 {
		t.Errorf("empty clip stats = %+v", stats)
	}
}

func TestDecodabilityNothingDelivered(t *testing.T) {
	c := gop("IBBP")
	stats := Decodability(c, func(int) bool { return false })
	if stats.Decodable != 0 || stats.Delivered != 0 || stats.Poisoned != 0 {
		t.Errorf("nothing delivered: %+v", stats)
	}
}

func TestGlitchesNone(t *testing.T) {
	c := gop("IBBPBBP")
	p := Glitches(c, nil)
	if p.Glitches != 0 || p.Longest != 0 || p.BadFrames != 0 || p.Mean != 0 {
		t.Errorf("full delivery glitches = %+v", p)
	}
}

func TestGlitchesSingleRun(t *testing.T) {
	// Losing the first P of IBBPBBP poisons frames 1..6: one long glitch.
	c := gop("IBBPBBP")
	p := Glitches(c, deliveredExcept(3))
	if p.Glitches != 1 {
		t.Errorf("glitches = %d, want 1", p.Glitches)
	}
	if p.Longest != 6 || p.BadFrames != 6 {
		t.Errorf("longest/bad = %d/%d, want 6/6", p.Longest, p.BadFrames)
	}
	if p.Mean != 6 {
		t.Errorf("mean = %v", p.Mean)
	}
}

func TestGlitchesSeparateRuns(t *testing.T) {
	// Two isolated B losses in different GOPs: two length-1 glitches.
	c := gop("IBBP" + "IBBP")
	p := Glitches(c, deliveredExcept(1, 5))
	if p.Glitches != 2 || p.Longest != 1 || p.BadFrames != 2 {
		t.Errorf("glitches = %+v", p)
	}
	if p.PerKiloframe != 250 { // 2 per 8 frames
		t.Errorf("per-kiloframe = %v", p.PerKiloframe)
	}
}

func TestGlitchesTrailingRun(t *testing.T) {
	// A glitch running to the end of the clip is still counted.
	c := gop("IBBP")
	p := Glitches(c, deliveredExcept(3))
	if p.Glitches == 0 {
		t.Error("trailing glitch not counted")
	}
}

func TestGlitchesEmpty(t *testing.T) {
	if p := Glitches(&Clip{}, nil); p.Glitches != 0 || p.PerKiloframe != 0 {
		t.Errorf("empty clip glitches = %+v", p)
	}
}

func TestDecodableFramesConsistentWithStats(t *testing.T) {
	c := gop("IBBPBBPBBPBBP" + "IBBPBBPBBPBBP")
	del := deliveredExcept(0, 7, 20)
	dec := DecodableFrames(c, del)
	stats := Decodability(c, del)
	n := 0
	for _, ok := range dec {
		if ok {
			n++
		}
	}
	if n != stats.Decodable {
		t.Errorf("DecodableFrames count %d != stats.Decodable %d", n, stats.Decodable)
	}
}

func TestDependencyWeights(t *testing.T) {
	c := &Clip{Frames: []Frame{
		{0, I, 10}, {1, B, 2}, {2, B, 2}, {3, P, 5}, {4, B, 2}, {5, P, 5},
		{6, I, 10}, {7, B, 2},
	}}
	w := DependencyWeights(c)
	if len(w) != len(c.Frames) {
		t.Fatalf("got %d weights", len(w))
	}
	// B frames are worth exactly 1 per byte.
	for _, i := range []int{1, 2, 4, 7} {
		if w[i] != 1 {
			t.Errorf("B frame %d weight %v, want 1", i, w[i])
		}
	}
	// Losing I0 kills frames 0..5 (26 bytes) over its own 10 bytes.
	if got := w[0]; got != 2.6 {
		t.Errorf("I0 weight = %v, want 2.6", got)
	}
	// The first P (frame 3) kills 3,4,5 plus B1,B2 (which need P3):
	// 5+2+5+2+2 = 16 over 5 bytes.
	if got := w[3]; got != 3.2 {
		t.Errorf("P3 weight = %v, want 3.2", got)
	}
	// Anchors with live dependents outrank B frames; the last I frame's
	// only dependent (B7) is baseline-undecodable, so it scores exactly 1.
	for _, i := range []int{0, 3, 5} {
		if w[i] <= 1 {
			t.Errorf("anchor %d weight %v not above 1", i, w[i])
		}
	}
	if w[6] != 1 {
		t.Errorf("trailing I weight = %v, want 1 (no live dependents)", w[6])
	}
}

func TestDependencyWeightsEmpty(t *testing.T) {
	if w := DependencyWeights(&Clip{}); len(w) != 0 {
		t.Errorf("empty clip weights = %v", w)
	}
}

func TestWeightedStream(t *testing.T) {
	c := &Clip{Frames: []Frame{{0, I, 4}, {1, B, 2}}}
	st, err := WeightedStream(c, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Slice(0).Weight != 12 || st.Slice(1).Weight != 2 {
		t.Errorf("weights = %v, %v", st.Slice(0).Weight, st.Slice(1).Weight)
	}
	if _, err := WeightedStream(c, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

// dependencyWeightsOracle is DependencyWeights by definition: it reruns
// DecodableFrames with each anchor lost in turn and adds up the sizes of
// the baseline-decodable frames that lost their decodability.
func dependencyWeightsOracle(c *Clip) []float64 {
	n := len(c.Frames)
	out := make([]float64, n)
	baseline := DecodableFrames(c, nil)
	for i, f := range c.Frames {
		var damage float64
		if f.Type == B {
			if baseline[i] {
				damage = float64(f.Size)
			}
		} else {
			for k, ok := range DecodableFrames(c, func(j int) bool { return j != i }) {
				if !ok && baseline[k] {
					damage += float64(c.Frames[k].Size)
				}
			}
		}
		out[i] = max(damage/float64(f.Size), 1)
	}
	return out
}

// TestDependencyWeightsMatchesRerun holds the prefix-sum DependencyWeights
// to the per-anchor rerun, bit for bit, on random GOP patterns: random
// types (so P and B frames before the first I, P runs of any length, and
// trailing B frames all occur) and random sizes, plus a generated clip.
func TestDependencyWeightsMatchesRerun(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 49))
	types := []FrameType{I, P, B, B}
	var clips []*Clip
	for range 500 {
		c := &Clip{}
		for i := range rng.IntN(40) + 1 {
			c.Frames = append(c.Frames, Frame{Index: i, Type: types[rng.IntN(len(types))], Size: 1 + rng.IntN(5000)})
		}
		clips = append(clips, c)
	}
	clips = append(clips, gop("BBPBBIBBPBB"), gop("PPPP"), gop("BBBB"), gop("IBBPBBPBB"))
	cfg := DefaultGenConfig()
	cfg.Frames = 3000
	gen, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clips = append(clips, gen)
	for _, c := range clips {
		got, want := DependencyWeights(c), dependencyWeightsOracle(c)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				var pattern strings.Builder
				for _, f := range c.Frames {
					pattern.WriteString(f.Type.String())
				}
				t.Fatalf("clip %s: frame %d weight %v, rerun %v", pattern.String(), i, got[i], want[i])
			}
		}
	}
}
