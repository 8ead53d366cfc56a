// Command tracegen generates and describes synthetic MPEG traces in the
// classic ASCII "index type size" format.
//
// Usage:
//
//	tracegen [-profile news|sports|movie] [-o FILE]   generate 2000 frames
//	tracegen -describe FILE                           summarize
//
// The default calibration matches the statistics the paper reports for its
// CNN clips: mean frame ≈ 38 units, max 120 units, I/P/B ≈ 8/31/61 %.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/trace"
)

func main() { cli.Main("tracegen", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stdout)
	profile := fs.String("profile", "news", "content profile: news, sports or movie")
	out := fs.String("o", "", "output file (default stdout)")
	describe := fs.String("describe", "", "summarize an existing trace file instead of generating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *describe != "" {
		return describeTrace(stdout, *describe)
	}

	cfg, err := trace.ProfileNamed(*profile)
	if err != nil {
		return err
	}
	cfg.Frames = 2000
	clip, err := trace.Generate(cfg)
	if err != nil {
		return err
	}
	if *out == "" {
		return clip.Write(stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := clip.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func describeTrace(w io.Writer, path string) error {
	clip, err := trace.Load(path, trace.GenConfig{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "frames:      %d\n", len(clip.Frames))
	fmt.Fprintf(w, "total size:  %d units\n", clip.TotalSize())
	fmt.Fprintf(w, "avg rate:    %.2f units/frame\n", clip.AverageRate())
	fmt.Fprintf(w, "max frame:   %d units\n", clip.MaxFrameSize())
	stats := clip.TypeStats()
	for _, ft := range []trace.FrameType{trace.I, trace.P, trace.B} {
		s, ok := stats[ft]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "type %s:      %s (%.1f%% of frames)\n", ft, s, 100*float64(s.N)/float64(len(clip.Frames)))
	}
	return nil
}
