// Package trace provides MPEG-like video traces for the experiments of
// Section 5 of the paper.
//
// The paper's experiments used MPEG-1 clips from the CNN video archive,
// which no longer exists. This package substitutes a synthetic generator
// calibrated to the statistics the paper reports for those clips:
//
//   - mean frame size ≈ 38 KB, maximum frame size ≈ 120 KB;
//   - I/P/B frame frequencies ≈ 8% / 31% / 61% (a 13-frame GOP
//     IBBPBBPBBPBBP gives 1/13, 4/13, 8/13 ≈ 7.7%/30.8%/61.5%);
//   - slice values 12 : 8 : 1 for I : P : B frames.
//
// Frame sizes are drawn from per-type lognormal distributions modulated by
// a slowly varying AR(1) "scene level" process, which produces the bursty
// group structure characteristic of entertainment video. Sizes are measured
// in abstract units (the model's "bytes"); the experiment harness uses
// 1 unit = 1 KB.
//
// The package also reads and writes the classic ASCII trace format
// ("index type size" per line) used by public MPEG trace archives, so real
// traces can be substituted for the synthetic ones.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/stats"
	"repro/internal/stream"
)

// FrameType is an MPEG frame type.
type FrameType byte

// The three MPEG-1 frame types.
const (
	I FrameType = 'I'
	P FrameType = 'P'
	B FrameType = 'B'
)

// Valid reports whether t is one of I, P, B.
func (t FrameType) Valid() bool { return t == I || t == P || t == B }

// String returns "I", "P" or "B".
func (t FrameType) String() string { return string(rune(t)) }

// Frame is one video frame of a clip.
type Frame struct {
	// Index is the display/generation index; frame k arrives at step k.
	Index int
	// Type is the MPEG frame type.
	Type FrameType
	// Size is the encoded frame size in abstract units.
	Size int
}

// Clip is a sequence of frames, one per time step.
type Clip struct {
	Frames []Frame
}

// TotalSize returns the sum of all frame sizes.
func (c *Clip) TotalSize() int {
	n := 0
	for _, f := range c.Frames {
		n += f.Size
	}
	return n
}

// MaxFrameSize returns the largest frame size, or 0 for an empty clip.
func (c *Clip) MaxFrameSize() int {
	m := 0
	for _, f := range c.Frames {
		if f.Size > m {
			m = f.Size
		}
	}
	return m
}

// AverageRate returns the mean frame size (units per step): total size over
// the number of frames — the paper's "average stream rate".
func (c *Clip) AverageRate() float64 {
	if len(c.Frames) == 0 {
		return 0
	}
	return float64(c.TotalSize()) / float64(len(c.Frames))
}

// TypeStats returns, per frame type, the count and the size summary.
func (c *Clip) TypeStats() map[FrameType]stats.Summary {
	buckets := map[FrameType][]float64{}
	for _, f := range c.Frames {
		buckets[f.Type] = append(buckets[f.Type], float64(f.Size))
	}
	out := make(map[FrameType]stats.Summary, len(buckets))
	for ft, xs := range buckets {
		out[ft] = stats.Summarize(xs)
	}
	return out
}

// WeightMap assigns a per-unit value to each frame type. The paper uses
// I:P:B = 12:8:1.
type WeightMap map[FrameType]float64

// PaperWeights returns the 12:8:1 value assignment of Section 5.
func PaperWeights() WeightMap { return WeightMap{I: 12, P: 8, B: 1} }

// WholeFrameStream converts the clip to a stream with one slice per frame
// (the "each frame is an individual slice" model of Section 5.3). The
// slice weight is w(type) * size, so the per-unit byte value is w(type).
func WholeFrameStream(c *Clip, w WeightMap) (*stream.Stream, error) {
	b := stream.NewBuilder()
	for _, f := range c.Frames {
		wt, ok := w[f.Type]
		if !ok {
			return nil, fmt.Errorf("trace: no weight for frame type %q", f.Type)
		}
		b.Add(f.Index, f.Size, wt*float64(f.Size))
	}
	return b.Build()
}

// ByteSliceStream converts the clip to a stream in which every unit is an
// individual slice of weight w(type) (the "each byte is an individual
// slice" model of Sections 5.1–5.2).
func ByteSliceStream(c *Clip, w WeightMap) (*stream.Stream, error) {
	b := stream.NewBuilder()
	for _, f := range c.Frames {
		wt, ok := w[f.Type]
		if !ok {
			return nil, fmt.Errorf("trace: no weight for frame type %q", f.Type)
		}
		b.AddRun(f.Index, f.Size, 1, wt)
	}
	return b.Build()
}

// GenConfig parameterizes the synthetic generator. The zero value is not
// usable; start from DefaultGenConfig.
type GenConfig struct {
	// Frames is the clip length.
	Frames int
	// GOP is the repeating frame-type pattern, e.g. "IBBPBBPBBPBBP".
	GOP string
	// Mean size per frame type, in units.
	MeanI, MeanP, MeanB float64
	// Relative standard deviation (coefficient of variation) per type.
	CVI, CVP, CVB float64
	// MinFrame and MaxFrame clamp every frame size.
	MinFrame, MaxFrame int
	// ScenePersistence is the AR(1) coefficient of the scene-level
	// multiplier (0 disables scene modulation).
	ScenePersistence float64
	// SceneNoise is the innovation stddev of the scene multiplier.
	SceneNoise float64
	// Seed drives the deterministic random source.
	Seed int64
}

// DefaultGenConfig returns the calibration that matches the statistics the
// paper reports for its CNN clips: mean frame ≈ 38 units, max 120 units,
// I/P/B ≈ 8/31/61 %. With the 13-frame GOP the type means satisfy
// (MeanI + 4·MeanP + 8·MeanB)/13 ≈ 38.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Frames:           2000,
		GOP:              "IBBPBBPBBPBBP",
		MeanI:            88,
		MeanP:            54,
		MeanB:            22,
		CVI:              0.15,
		CVP:              0.22,
		CVB:              0.28,
		MinFrame:         2,
		MaxFrame:         120,
		ScenePersistence: 0.985,
		SceneNoise:       0.055,
		Seed:             1,
	}
}

// NewsProfile is an alias for DefaultGenConfig: talking heads with regular
// scene cuts, calibrated to the paper's clip statistics.
func NewsProfile() GenConfig { return DefaultGenConfig() }

// SportsProfile models high-motion content: larger inter-coded frames
// (motion defeats prediction), higher per-frame variability, and rapid
// scene-level changes. The overall mean rate stays near the paper's
// 38 units/frame so results are comparable across profiles.
func SportsProfile() GenConfig {
	g := DefaultGenConfig()
	g.MeanI = 80
	g.MeanP = 56
	g.MeanB = 25
	g.CVI = 0.20
	g.CVP = 0.30
	g.CVB = 0.40
	g.ScenePersistence = 0.9
	g.SceneNoise = 0.15
	return g
}

// MovieProfile models cinematic content: very long scenes (high AR(1)
// persistence) with large slow swings between quiet dialogue and action,
// which makes the trace bursty at time scales of hundreds of frames —
// the hardest case for small smoothing buffers.
func MovieProfile() GenConfig {
	g := DefaultGenConfig()
	g.MeanI = 85
	g.MeanP = 52
	g.MeanB = 21
	g.ScenePersistence = 0.995
	g.SceneNoise = 0.035
	return g
}

// Profile is a named generator preset.
type Profile struct {
	Name string
	Cfg  GenConfig
}

// Profiles returns the built-in generator presets by name, in a stable
// order.
func Profiles() []Profile {
	return []Profile{
		{"news", NewsProfile()},
		{"sports", SportsProfile()},
		{"movie", MovieProfile()},
	}
}

// ProfileNamed returns the preset called name.
func ProfileNamed(name string) (GenConfig, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p.Cfg, nil
		}
	}
	return GenConfig{}, fmt.Errorf("trace: unknown profile %q", name)
}

// Validate checks the configuration.
func (g GenConfig) Validate() error {
	switch {
	case g.Frames <= 0:
		return fmt.Errorf("trace: non-positive frame count %d", g.Frames)
	case len(g.GOP) == 0:
		return fmt.Errorf("trace: empty GOP pattern")
	case g.MeanI <= 0 || g.MeanP <= 0 || g.MeanB <= 0:
		return fmt.Errorf("trace: non-positive type mean")
	case g.CVI < 0 || g.CVP < 0 || g.CVB < 0:
		return fmt.Errorf("trace: negative coefficient of variation")
	case g.MinFrame < 1 || g.MaxFrame < g.MinFrame:
		return fmt.Errorf("trace: invalid frame size clamp [%d, %d]", g.MinFrame, g.MaxFrame)
	}
	for _, r := range g.GOP {
		if !FrameType(r).Valid() {
			return fmt.Errorf("trace: invalid GOP symbol %q", r)
		}
	}
	return nil
}

// Generate produces a synthetic clip. It is deterministic in the config
// (including Seed).
func Generate(cfg GenConfig) (*Clip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	dists := map[FrameType]stats.Lognormal{}
	for _, tm := range []struct {
		ft   FrameType
		mean float64
		cv   float64
	}{{I, cfg.MeanI, cfg.CVI}, {P, cfg.MeanP, cfg.CVP}, {B, cfg.MeanB, cfg.CVB}} {
		ln, err := stats.LognormalFromMoments(tm.mean, tm.mean*tm.cv)
		if err != nil {
			return nil, err
		}
		dists[tm.ft] = ln
	}

	scene := stats.AR1{Phi: cfg.ScenePersistence, Target: 1, Noise: cfg.SceneNoise}
	c := &Clip{Frames: make([]Frame, cfg.Frames)}
	for i := 0; i < cfg.Frames; i++ {
		ft := FrameType(cfg.GOP[i%len(cfg.GOP)])
		mult := 1.0
		if cfg.ScenePersistence > 0 {
			mult = scene.Next(rng)
			if mult < 0.3 {
				mult = 0.3
			}
			if mult > 2.5 {
				mult = 2.5
			}
		}
		size := int(dists[ft].Sample(rng)*mult + 0.5)
		if size < cfg.MinFrame {
			size = cfg.MinFrame
		}
		if size > cfg.MaxFrame {
			size = cfg.MaxFrame
		}
		c.Frames[i] = Frame{Index: i, Type: ft, Size: size}
	}
	return c, nil
}

// Write emits the clip in the classic ASCII trace format: one
// "index type size" line per frame.
func (c *Clip) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range c.Frames {
		if _, err := fmt.Fprintf(bw, "%d %s %d\n", f.Index, f.Type, f.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads the trace file at path, or generates a clip from cfg when
// path is empty.
func Load(path string, cfg GenConfig) (*Clip, error) {
	if path == "" {
		return Generate(cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Read parses the ASCII trace format produced by Write (and by the public
// MPEG trace archives): whitespace-separated "index type size" records,
// one per line; blank lines and lines starting with '#' are skipped.
// Frames are re-indexed consecutively in file order.
func Read(r io.Reader) (*Clip, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	c := &Clip{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		ft := FrameType(fields[1][0])
		if len(fields[1]) != 1 || !ft.Valid() {
			return nil, fmt.Errorf("trace: line %d: invalid frame type %q", lineNo, fields[1])
		}
		size, err := strconv.Atoi(fields[2])
		if err != nil || size <= 0 {
			return nil, fmt.Errorf("trace: line %d: invalid size %q", lineNo, fields[2])
		}
		c.Frames = append(c.Frames, Frame{Index: len(c.Frames), Type: ft, Size: size})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return c, nil
}
