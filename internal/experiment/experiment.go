// Package experiment regenerates every figure and table of the paper's
// evaluation (Section 5) plus validation tables for the analytic results of
// Sections 3 and 4. Each experiment returns a Table whose series can be
// printed as aligned text, CSV, or a crude ASCII plot; cmd/experiments and
// the repository benchmarks drive them.
//
// Conventions (see DESIGN.md §5): sizes are in abstract units (1 unit =
// 1 KB); the link rate is set relative to the trace's average rate; the
// buffer axis is in multiples of the maximum frame size; D = B/R
// throughout, with B rounded to a multiple of R so the law holds exactly.
package experiment

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a generic (x, series...) result set.
type Table struct {
	// ID is the experiment identifier, e.g. "fig2".
	ID string
	// Title describes the experiment.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series names, in display order.
	Series []string
	// Rows, in x order.
	Rows []Row
	// Notes holds free-form annotations (parameters, caveats).
	Notes []string
}

// Row is one x position with one y value per series (map key = series name;
// missing entries render as blanks).
type Row struct {
	X float64
	Y map[string]float64
}

// Get returns the y value of the given series at the i-th row.
func (t *Table) Get(i int, series string) (float64, bool) {
	if i < 0 || i >= len(t.Rows) {
		return 0, false
	}
	v, ok := t.Rows[i].Y[series]
	return v, ok
}

// Text renders the table as aligned columns.
func (t *Table) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s — %s\n", t.ID, t.Title)
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "# %s\n", n)
	}
	fmt.Fprintf(&sb, "%-12s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&sb, " %14s", s)
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-12.4g", r.X)
		for _, s := range t.Series {
			if v, ok := r.Y[s]; ok {
				fmt.Fprintf(&sb, " %14.6g", v)
			} else {
				fmt.Fprintf(&sb, " %14s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CSV renders the table as comma-separated values with a header line.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(csvEscape(t.XLabel))
	for _, s := range t.Series {
		sb.WriteByte(',')
		sb.WriteString(csvEscape(s))
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%g", r.X)
		for _, s := range t.Series {
			sb.WriteByte(',')
			if v, ok := r.Y[s]; ok {
				fmt.Fprintf(&sb, "%g", v)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Plot renders a crude ASCII line plot of all series, letter-coded in
// series order (a, b, c, ...). It is meant for eyeballing shapes in a
// terminal, not for publication.
func (t *Table) Plot(width, height int) string {
	if len(t.Rows) == 0 || len(t.Series) == 0 {
		return "(empty table)\n"
	}
	if width < 16 {
		width = 64
	}
	if height < 4 {
		height = 16
	}
	minY, maxY := 0.0, 0.0
	first := true
	for _, r := range t.Rows {
		for _, s := range t.Series {
			v, ok := r.Y[s]
			if !ok {
				continue
			}
			if first {
				minY, maxY = v, v
				first = false
			}
			if v < minY {
				minY = v
			}
			if v > maxY {
				maxY = v
			}
		}
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	minX, maxX := t.Rows[0].X, t.Rows[len(t.Rows)-1].X
	if maxX == minX {
		maxX = minX + 1
	}
	for si, s := range t.Series {
		mark := byte('a' + si%26)
		for _, r := range t.Rows {
			v, ok := r.Y[s]
			if !ok {
				continue
			}
			col := int((r.X - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int((v-minY)/(maxY-minY)*float64(height-1))
			grid[row][col] = mark
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (y: %.4g..%.4g, x: %.4g..%.4g)\n", t.Title, minY, maxY, minX, maxX)
	for _, line := range grid {
		sb.WriteString("  |")
		sb.Write(line)
		sb.WriteByte('\n')
	}
	sb.WriteString("  +" + strings.Repeat("-", width) + "\n")
	legend := make([]string, len(t.Series))
	for i, s := range t.Series {
		legend[i] = fmt.Sprintf("%c=%s", 'a'+i%26, s)
	}
	sb.WriteString("   " + strings.Join(legend, "  ") + "\n")
	return sb.String()
}

// Registry maps experiment IDs to their runners, for cmd/experiments.
type Runner func(Config) (*Table, error)

// All returns the full experiment registry keyed by ID, in a deterministic
// order via Names.
func All() map[string]Runner {
	return map[string]Runner{
		"fig2":      Fig2,
		"fig3":      Fig3,
		"fig4":      Fig4,
		"fig5":      Fig5,
		"fig6":      Fig6,
		"brd":       TableBRD,
		"bufratio":  TableBufferRatio,
		"varslices": TableVarSlices,
		"greedyub":  TableGreedyUpperBound,
		"greedylb":  TableGreedyLowerBound,
		"onlinelb":  TableOnlineLowerBound,
		"lossless":  TableLossless,
		// Extensions beyond the paper's own evaluation (see extensions.go
		// and extensions2.go).
		"muxgain":      TableMuxGain,
		"alternatives": TableAlternatives,
		"decode":       TableDecode,
		"proactive":    TableProactive,
		"jitter":       TableJitter,
		"glitch":       TableGlitch,
		"adaptive":     TableAdaptive,
		"admission":    TableAdmission,
		"robust":       TableRobust,
		"smartweights": TableSmartWeights,
		"fairness":     TableFairness,
	}
}

// Names returns the registry keys sorted with figures first.
func Names() []string {
	m := All()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		fi, fj := strings.HasPrefix(names[i], "fig"), strings.HasPrefix(names[j], "fig")
		if fi != fj {
			return fi
		}
		return names[i] < names[j]
	})
	return names
}
