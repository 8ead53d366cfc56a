package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
)

func mustGenerate(t *testing.T, cfg GenConfig) *Clip {
	t.Helper()
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateCalibration(t *testing.T) {
	// The default configuration must reproduce the statistics the paper
	// reports for its clips: mean ≈ 38, max ≤ 120, I/P/B ≈ 8/31/61 %.
	c := mustGenerate(t, DefaultGenConfig())
	if len(c.Frames) != 2000 {
		t.Fatalf("got %d frames", len(c.Frames))
	}
	mean := c.AverageRate()
	if mean < 33 || mean > 43 {
		t.Errorf("mean frame size = %.1f, want ≈ 38", mean)
	}
	if max := c.MaxFrameSize(); max > 120 || max < 90 {
		t.Errorf("max frame size = %d, want close to (and at most) 120", max)
	}
	counts := map[FrameType]int{}
	for _, f := range c.Frames {
		counts[f.Type]++
	}
	total := float64(len(c.Frames))
	for _, tc := range []struct {
		ft   FrameType
		want float64 // fraction
	}{{I, 1.0 / 13}, {P, 4.0 / 13}, {B, 8.0 / 13}} {
		got := float64(counts[tc.ft]) / total
		if math.Abs(got-tc.want) > 0.01 {
			t.Errorf("type %s frequency = %.3f, want %.3f", tc.ft, got, tc.want)
		}
	}
	// I frames must be markedly larger than B frames on average.
	ts := c.TypeStats()
	if ts[I].Mean <= 2*ts[B].Mean {
		t.Errorf("I mean %.1f not >> B mean %.1f", ts[I].Mean, ts[B].Mean)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	a := mustGenerate(t, cfg)
	b := mustGenerate(t, cfg)
	for i := range a.Frames {
		if a.Frames[i] != b.Frames[i] {
			t.Fatalf("frame %d differs between identical seeds", i)
		}
	}
	cfg.Seed = 2
	c := mustGenerate(t, cfg)
	same := true
	for i := range a.Frames {
		if a.Frames[i] != c.Frames[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical clips")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []func(*GenConfig){
		func(g *GenConfig) { g.Frames = 0 },
		func(g *GenConfig) { g.GOP = "" },
		func(g *GenConfig) { g.GOP = "IXP" },
		func(g *GenConfig) { g.MeanI = 0 },
		func(g *GenConfig) { g.CVB = -1 },
		func(g *GenConfig) { g.MinFrame = 0 },
		func(g *GenConfig) { g.MaxFrame = 1; g.MinFrame = 2 },
	}
	for i, mutate := range bad {
		cfg := DefaultGenConfig()
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestFrameSizeClamps(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Frames = 5000
	c := mustGenerate(t, cfg)
	for _, f := range c.Frames {
		if f.Size < cfg.MinFrame || f.Size > cfg.MaxFrame {
			t.Fatalf("frame %d size %d outside [%d, %d]", f.Index, f.Size, cfg.MinFrame, cfg.MaxFrame)
		}
	}
}

func TestWholeFrameStream(t *testing.T) {
	c := &Clip{Frames: []Frame{
		{0, I, 10}, {1, B, 2}, {2, P, 5},
	}}
	st, err := WholeFrameStream(c, PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 3 {
		t.Fatalf("len = %d", st.Len())
	}
	if st.TotalBytes() != 17 {
		t.Errorf("bytes = %d, want 17", st.TotalBytes())
	}
	// I frame: weight 12*10; byte value 12.
	if got := st.Slice(0).ByteValue(); got != 12 {
		t.Errorf("I byte value = %v, want 12", got)
	}
	if got := st.Slice(1).ByteValue(); got != 1 {
		t.Errorf("B byte value = %v, want 1", got)
	}
	if got := st.Slice(2).Arrival; got != 2 {
		t.Errorf("third frame arrival = %d, want 2", got)
	}
}

func TestByteSliceStream(t *testing.T) {
	c := &Clip{Frames: []Frame{{0, I, 3}, {1, B, 2}}}
	st, err := ByteSliceStream(c, PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 5 {
		t.Fatalf("len = %d, want 5", st.Len())
	}
	if !st.UnitSliced() {
		t.Error("byte-slice stream not unit sliced")
	}
	if st.Slice(0).Weight != 12 || st.Slice(4).Weight != 1 {
		t.Errorf("weights wrong: %v, %v", st.Slice(0).Weight, st.Slice(4).Weight)
	}
}

func TestStreamsAgreeOnTotals(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Frames = 100
	c := mustGenerate(t, cfg)
	whole, err := WholeFrameStream(c, PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	bytes, err := ByteSliceStream(c, PaperWeights())
	if err != nil {
		t.Fatal(err)
	}
	if whole.TotalBytes() != bytes.TotalBytes() {
		t.Errorf("total bytes differ: %d vs %d", whole.TotalBytes(), bytes.TotalBytes())
	}
	if math.Abs(whole.TotalWeight()-bytes.TotalWeight()) > 1e-6 {
		t.Errorf("total weight differs: %v vs %v", whole.TotalWeight(), bytes.TotalWeight())
	}
}

func TestMissingWeightRejected(t *testing.T) {
	c := &Clip{Frames: []Frame{{0, I, 1}}}
	if _, err := WholeFrameStream(c, WeightMap{P: 1, B: 1}); err == nil {
		t.Error("missing I weight accepted")
	}
	if _, err := ByteSliceStream(c, WeightMap{}); err == nil {
		t.Error("empty weight map accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Frames = 200
	c := mustGenerate(t, cfg)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames) != len(c.Frames) {
		t.Fatalf("round trip lost frames: %d vs %d", len(got.Frames), len(c.Frames))
	}
	for i := range c.Frames {
		if got.Frames[i] != c.Frames[i] {
			t.Fatalf("frame %d: %+v != %+v", i, got.Frames[i], c.Frames[i])
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n0 I 10\n  \n1 B 2\n"
	c, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(c.Frames))
	}
	if c.Frames[1].Type != B || c.Frames[1].Size != 2 {
		t.Errorf("frame 1 = %+v", c.Frames[1])
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"0 I\n",      // too few fields
		"0 X 5\n",    // bad type
		"0 IP 5\n",   // multi-char type
		"0 I five\n", // bad size
		"0 I 0\n",    // non-positive size
		"0 I -2\n",   // negative size
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) succeeded", in)
		}
	}
}

func TestReadReindexes(t *testing.T) {
	// Indices in the file are ignored; frames are renumbered in order.
	c, err := Read(strings.NewReader("7 I 5\n3 B 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Frames[0].Index != 0 || c.Frames[1].Index != 1 {
		t.Errorf("indices = %d, %d; want 0, 1", c.Frames[0].Index, c.Frames[1].Index)
	}
}

func TestClipAggregatesEmpty(t *testing.T) {
	c := &Clip{}
	if c.TotalSize() != 0 || c.MaxFrameSize() != 0 || c.AverageRate() != 0 {
		t.Error("empty clip aggregates non-zero")
	}
}

func TestTypeStats(t *testing.T) {
	c := &Clip{Frames: []Frame{{0, I, 10}, {1, I, 20}, {2, B, 4}}}
	ts := c.TypeStats()
	if ts[I].N != 2 || ts[I].Mean != 15 {
		t.Errorf("I stats = %+v", ts[I])
	}
	if ts[B].N != 1 || ts[B].Mean != 4 {
		t.Errorf("B stats = %+v", ts[B])
	}
	if _, ok := ts[P]; ok {
		t.Error("P stats present for clip without P frames")
	}
}

func TestFrameTypeHelpers(t *testing.T) {
	if !I.Valid() || !P.Valid() || !B.Valid() || FrameType('Q').Valid() {
		t.Error("Valid() wrong")
	}
	if I.String() != "I" {
		t.Errorf("I.String() = %q", I.String())
	}
}

func TestSceneModulationIncreasesBurstiness(t *testing.T) {
	base := DefaultGenConfig()
	base.Frames = 4000
	flat := base
	flat.ScenePersistence = 0
	flat.SceneNoise = 0

	cb := mustGenerate(t, base)
	cf := mustGenerate(t, flat)

	// Compare coefficient of variation of I-frame sizes: scene modulation
	// should add variance.
	varOf := func(c *Clip) float64 {
		var xs []float64
		for _, f := range c.Frames {
			if f.Type == I {
				xs = append(xs, float64(f.Size))
			}
		}
		s := stats.Summarize(xs)
		return s.StdDev / s.Mean
	}
	if varOf(cb) <= varOf(cf) {
		t.Errorf("scene modulation did not increase I-frame CV: %.3f vs %.3f", varOf(cb), varOf(cf))
	}
}

func TestProfilesAreValidAndDistinct(t *testing.T) {
	profs := Profiles()
	if len(profs) != 3 {
		t.Fatalf("expected 3 profiles, got %d", len(profs))
	}
	means := map[string]float64{}
	for _, p := range profs {
		cfg := p.Cfg
		cfg.Frames = 2000
		c, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		means[p.Name] = c.AverageRate()
		// All profiles stay near the paper's calibration so results are
		// comparable.
		if m := c.AverageRate(); m < 30 || m > 46 {
			t.Errorf("%s: mean %v outside the comparable band", p.Name, m)
		}
		if c.MaxFrameSize() > 120 {
			t.Errorf("%s: max frame %d above cap", p.Name, c.MaxFrameSize())
		}
	}
	// Movie must be the most persistent (longest scenes): check via the
	// generator parameters rather than sampling noise.
	if MovieProfile().ScenePersistence <= NewsProfile().ScenePersistence {
		t.Error("movie profile not more persistent than news")
	}
	if SportsProfile().SceneNoise <= NewsProfile().SceneNoise {
		t.Error("sports profile not noisier than news")
	}
}

func TestLoad(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Frames = 100
	clip, err := Load("", cfg)
	if err != nil || len(clip.Frames) != 100 {
		t.Fatalf("synthetic: %v, %v", clip, err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "clip.txt")
	if err := os.WriteFile(path, []byte("0 I 10\n1 B 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	clip, err = Load(path, cfg)
	if err != nil || len(clip.Frames) != 2 || clip.Frames[0].Size != 10 {
		t.Fatalf("from file: %+v, %v", clip, err)
	}
	if _, err := Load(filepath.Join(dir, "missing.txt"), cfg); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad, cfg); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("malformed trace: err %v, want one naming the file", err)
	}
}

func TestProfileNamed(t *testing.T) {
	for _, p := range Profiles() {
		cfg, err := ProfileNamed(p.Name)
		if err != nil || cfg != p.Cfg {
			t.Errorf("%s: %+v, %v", p.Name, cfg, err)
		}
	}
	if _, err := ProfileNamed("bogus"); err == nil {
		t.Error("bogus profile accepted")
	}
}
