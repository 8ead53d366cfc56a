package experiment

import (
	"strings"
	"testing"
)

// quick is the shared reduced configuration for test runs.
var quick = Config{Quick: true}

// run executes a registered experiment and applies shared sanity checks.
func run(t *testing.T, name string) *Table {
	t.Helper()
	r, ok := All()[name]
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	tab, err := r(quick)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if tab.ID != name {
		t.Errorf("%s: table ID %q", name, tab.ID)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: empty table", name)
	}
	if len(tab.Series) == 0 {
		t.Fatalf("%s: no series", name)
	}
	for i, row := range tab.Rows {
		if len(row.Y) == 0 {
			t.Errorf("%s: row %d has no values", name, i)
		}
	}
	return tab
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != len(All()) {
		t.Fatalf("Names() has %d entries, registry %d", len(names), len(All()))
	}
	// Figures sort first.
	if !strings.HasPrefix(names[0], "fig") {
		t.Errorf("first name %q is not a figure", names[0])
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate name %q", n)
		}
		seen[n] = true
	}
}

func TestAllExperimentsRun(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) { run(t, name) })
	}
}

// seriesAt fetches a value or fails.
func seriesAt(t *testing.T, tab *Table, i int, s string) float64 {
	t.Helper()
	v, ok := tab.Get(i, s)
	if !ok {
		t.Fatalf("%s: missing %s at row %d", tab.ID, s, i)
	}
	return v
}

func TestFig2Ordering(t *testing.T) {
	tab := run(t, "fig2")
	const eps = 1e-9
	for i := range tab.Rows {
		opt := seriesAt(t, tab, i, "optimal")
		gr := seriesAt(t, tab, i, "greedy")
		td := seriesAt(t, tab, i, "taildrop")
		if opt > gr+eps {
			t.Errorf("row %d: optimal loss %v > greedy %v", i, opt, gr)
		}
		if gr > td+eps {
			t.Errorf("row %d: greedy loss %v > taildrop %v", i, gr, td)
		}
	}
	// Optimal loss is non-increasing in the buffer.
	for i := 1; i < len(tab.Rows); i++ {
		if seriesAt(t, tab, i, "optimal") > seriesAt(t, tab, i-1, "optimal")+1e-9 {
			t.Errorf("optimal loss increased from row %d to %d", i-1, i)
		}
	}
	// With a link 10%% above the average rate, a big buffer loses nothing.
	last := len(tab.Rows) - 1
	if v := seriesAt(t, tab, last, "greedy"); v > 0.5 {
		t.Errorf("greedy loss %v%% at the largest buffer, want ~0", v)
	}
}

func TestFig3Phenomena(t *testing.T) {
	tab := run(t, "fig3")
	// The paper's headline phenomenon: at moderate-to-large buffers the
	// Tail-Drop weighted loss stays above ~10% (it must lose ~10% of the
	// *bytes*, and it loses valuable ones), while Greedy's weighted loss
	// drops well below.
	found := false
	for i := range tab.Rows {
		if tab.Rows[i].X < 2 || tab.Rows[i].X > 16 {
			continue
		}
		td := seriesAt(t, tab, i, "taildrop")
		gr := seriesAt(t, tab, i, "greedy")
		if td > 10 && gr < 10 && gr < td/2 {
			found = true
		}
	}
	if !found {
		t.Error("fig3: expected a buffer range where taildrop > 10% and greedy << taildrop")
	}
}

func TestFig4Phenomena(t *testing.T) {
	tab := run(t, "fig4")
	const eps = 1e-9
	for i := range tab.Rows {
		opt := seriesAt(t, tab, i, "optimal")
		gr := seriesAt(t, tab, i, "greedy")
		td := seriesAt(t, tab, i, "taildrop")
		if gr > opt+eps {
			t.Errorf("row %d: greedy benefit %v above optimal %v", i, gr, opt)
		}
		if td > gr+eps {
			t.Errorf("row %d: taildrop benefit %v above greedy %v", i, td, gr)
		}
		// Benefit is non-decreasing in the link rate for the optimal.
		if i > 0 && opt < seriesAt(t, tab, i-1, "optimal")-1e-9 {
			t.Errorf("optimal benefit decreased at row %d", i)
		}
	}
	// Greedy salvages most of the benefit even at 40% of the average rate
	// (the paper's Fig. 4 observation), far ahead of Tail-Drop.
	gr0 := seriesAt(t, tab, 0, "greedy")
	td0 := seriesAt(t, tab, 0, "taildrop")
	if gr0 < 1.5*td0 {
		t.Errorf("at the lowest rate greedy=%v%% vs taildrop=%v%%: expected a large gap", gr0, td0)
	}
}

func TestFig5Phenomena(t *testing.T) {
	tab := run(t, "fig5")
	const eps = 1e-9
	for i := range tab.Rows {
		fr := seriesAt(t, tab, i, "optimal-frame")
		by := seriesAt(t, tab, i, "optimal-byte")
		if by > fr+eps {
			t.Errorf("row %d: byte-slice optimal loss %v above frame-slice %v", i, by, fr)
		}
	}
	// Large gap at the smallest buffer, negligible gap at the largest.
	fr0 := seriesAt(t, tab, 0, "optimal-frame")
	by0 := seriesAt(t, tab, 0, "optimal-byte")
	if by0 <= 0 || fr0/by0 < 2 {
		t.Errorf("smallest buffer gap %v/%v: expected a multiple >= 2", fr0, by0)
	}
	last := len(tab.Rows) - 1
	frL := seriesAt(t, tab, last, "optimal-frame")
	byL := seriesAt(t, tab, last, "optimal-byte")
	if frL-byL > 0.1 {
		t.Errorf("largest buffer gap %v vs %v: expected to vanish", frL, byL)
	}
}

func TestFig6Phenomena(t *testing.T) {
	tab := run(t, "fig6")
	const eps = 1e-9
	for i := range tab.Rows {
		if g, td := seriesAt(t, tab, i, "greedy-frame"), seriesAt(t, tab, i, "taildrop-frame"); g > td+eps {
			t.Errorf("row %d: greedy-frame %v above taildrop-frame %v", i, g, td)
		}
		if g, td := seriesAt(t, tab, i, "greedy-byte"), seriesAt(t, tab, i, "taildrop-byte"); g > td+eps {
			t.Errorf("row %d: greedy-byte %v above taildrop-byte %v", i, g, td)
		}
	}
}

func TestTableBRDLaw(t *testing.T) {
	tab := run(t, "brd")
	// Find the law row (x == 1).
	lawIdx := -1
	for i, r := range tab.Rows {
		if r.X == 1 {
			lawIdx = i
		}
	}
	if lawIdx < 0 {
		t.Fatal("no row at B/(R*D) = 1")
	}
	lawLoss := seriesAt(t, tab, lawIdx, "byteloss")
	for i, r := range tab.Rows {
		if loss := seriesAt(t, tab, i, "byteloss"); loss < lawLoss-1e-9 {
			t.Errorf("B/(R*D)=%v: loss %v below the law's %v — law not optimal", r.X, loss, lawLoss)
		}
		// The proactive-drop ablation never exceeds the law loss for
		// B >= R*D (extra buffer is simply unused).
		if r.X >= 1 {
			if dl := seriesAt(t, tab, i, "byteloss-droplate"); dl > lawLoss+1e-9 {
				t.Errorf("B/(R*D)=%v: droplate loss %v above the law's %v", r.X, dl, lawLoss)
			}
		}
	}
}

func TestTableBufferRatioBound(t *testing.T) {
	tab := run(t, "bufratio")
	for i, r := range tab.Rows {
		bound := seriesAt(t, tab, i, "bound")
		if v := seriesAt(t, tab, i, "worst-random"); v < bound-1e-9 {
			t.Errorf("B1=%v: worst random ratio %v below bound %v", r.X, v, bound)
		}
		if v := seriesAt(t, tab, i, "batch-pattern"); v < bound-1e-9 {
			t.Errorf("B1=%v: batch ratio %v below bound %v", r.X, v, bound)
		}
	}
}

func TestTableVarSlicesBound(t *testing.T) {
	tab := run(t, "varslices")
	for i, r := range tab.Rows {
		if v, b := seriesAt(t, tab, i, "worst-measured"), seriesAt(t, tab, i, "bound"); v < b-1e-9 {
			t.Errorf("Lmax=%v: measured %v below bound %v", r.X, v, b)
		}
	}
}

func TestTableGreedyBounds(t *testing.T) {
	ub := run(t, "greedyub")
	for i, r := range ub.Rows {
		if v, b := seriesAt(t, ub, i, "worst-measured"), seriesAt(t, ub, i, "bound"); v > b+1e-9 {
			t.Errorf("Lmax=%v: measured ratio %v exceeds bound %v", r.X, v, b)
		}
	}
	lb := run(t, "greedylb")
	for i, r := range lb.Rows {
		m := seriesAt(t, lb, i, "measured")
		p := seriesAt(t, lb, i, "predicted")
		if diff := m - p; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("alpha=%v: measured %v != predicted %v", r.X, m, p)
		}
		if e := seriesAt(t, lb, i, "two-minus-eps"); m < e-1e-9 {
			t.Errorf("alpha=%v: measured %v below theorem's 2-eps %v", r.X, m, e)
		}
	}
}

func TestTableOnlineLB(t *testing.T) {
	tab := run(t, "onlinelb")
	for i, r := range tab.Rows {
		pred := seriesAt(t, tab, i, "predicted-lb")
		for _, pol := range []string{"greedy", "taildrop", "headdrop"} {
			if v := seriesAt(t, tab, i, pol); v < pred*0.95 {
				t.Errorf("alpha=%v: %s achieved only %v, predicted lb %v", r.X, pol, v, pred)
			}
		}
	}
}

func TestTableLosslessOrdering(t *testing.T) {
	tab := run(t, "lossless")
	for i, r := range tab.Rows {
		stored := seriesAt(t, tab, i, "stored-plan")
		min := seriesAt(t, tab, i, "minrate-lossy-law")
		if stored > min+0.02 {
			t.Errorf("D=%v: stored plan peak %v above live min rate %v", r.X, stored, min)
		}
		// Min rate decreases with delay.
		if i > 0 && min > seriesAt(t, tab, i-1, "minrate-lossy-law")+1e-9 {
			t.Errorf("min rate increased at D=%v", r.X)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "Demo, with comma", XLabel: "x", YLabel: "y",
		Series: []string{"a", "b,c"},
	}
	tab.Rows = append(tab.Rows, Row{X: 1, Y: map[string]float64{"a": 2}})
	tab.Rows = append(tab.Rows, Row{X: 2, Y: map[string]float64{"a": 3, "b,c": 4}})

	text := tab.Text()
	if !strings.Contains(text, "Demo") || !strings.Contains(text, "-") {
		t.Errorf("Text missing pieces:\n%s", text)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"b,c"`) {
		t.Errorf("CSV did not escape the series name:\n%s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Errorf("CSV has %d lines, want 3", len(lines))
	}
	if lines[1] != "1,2," {
		t.Errorf("CSV row 1 = %q", lines[1])
	}
	plot := tab.Plot(40, 8)
	if !strings.Contains(plot, "a=a") {
		t.Errorf("Plot legend missing:\n%s", plot)
	}
	if got := (&Table{}).Plot(10, 5); !strings.Contains(got, "empty") {
		t.Errorf("empty plot = %q", got)
	}
}

func TestTableGet(t *testing.T) {
	tab := &Table{Series: []string{"a"}}
	tab.Rows = append(tab.Rows, Row{X: 0, Y: map[string]float64{"a": 7}})
	if v, ok := tab.Get(0, "a"); !ok || v != 7 {
		t.Errorf("Get = %v/%v", v, ok)
	}
	if _, ok := tab.Get(0, "zz"); ok {
		t.Error("Get found a missing series")
	}
	if _, ok := tab.Get(5, "a"); ok {
		t.Error("Get found an out-of-range row")
	}
}

func TestTableMuxGain(t *testing.T) {
	tab := run(t, "muxgain")
	for i, r := range tab.Rows {
		sh := seriesAt(t, tab, i, "shared")
		pa := seriesAt(t, tab, i, "partitioned")
		if sh > pa+1e-9 {
			t.Errorf("K=%v: shared loss %v above partitioned %v", r.X, sh, pa)
		}
	}
	// With one stream the modes coincide.
	if sh, pa := seriesAt(t, tab, 0, "shared"), seriesAt(t, tab, 0, "partitioned"); sh != pa {
		t.Errorf("K=1: shared %v != partitioned %v", sh, pa)
	}
}

func TestTableAlternatives(t *testing.T) {
	tab := run(t, "alternatives")
	for i, r := range tab.Rows {
		lossy := seriesAt(t, tab, i, "smoothing-1pct")
		lossfree := seriesAt(t, tab, i, "lossless")
		rcbr := seriesAt(t, tab, i, "rcbr-peak")
		if lossy > lossfree+1e-9 {
			t.Errorf("D=%v: 1%%-loss smoothing needs more rate (%v) than lossless (%v)", r.X, lossy, lossfree)
		}
		if lossfree > rcbr+1e-9 {
			t.Errorf("D=%v: lossless smoothing needs more rate (%v) than rcbr peak (%v)", r.X, lossfree, rcbr)
		}
		// Rates decrease with the latency budget.
		if i > 0 && lossfree > seriesAt(t, tab, i-1, "lossless")+1e-9 {
			t.Errorf("lossless rate increased at D=%v", r.X)
		}
	}
}

func TestTableDecode(t *testing.T) {
	tab := run(t, "decode")
	for i, r := range tab.Rows {
		for _, pol := range []string{"taildrop", "greedy"} {
			del := seriesAt(t, tab, i, pol+"-delivered")
			dec := seriesAt(t, tab, i, pol+"-decodable")
			if dec > del+1e-9 {
				t.Errorf("%s at m=%v: decodable %v exceeds delivered %v", pol, r.X, dec, del)
			}
		}
		// Greedy's poisoning (delivered - decodable) must be far below
		// Tail-Drop's at moderate buffers.
		if r.X >= 2 {
			tdPoison := seriesAt(t, tab, i, "taildrop-delivered") - seriesAt(t, tab, i, "taildrop-decodable")
			grPoison := seriesAt(t, tab, i, "greedy-delivered") - seriesAt(t, tab, i, "greedy-decodable")
			if grPoison > tdPoison/2 {
				t.Errorf("m=%v: greedy poisoning %v not far below taildrop %v", r.X, grPoison, tdPoison)
			}
		}
	}
}

func TestTableProactive(t *testing.T) {
	tab := run(t, "proactive")
	// Threshold 1.0 must be present (pure greedy) and all benefits sane.
	last := len(tab.Rows) - 1
	if tab.Rows[last].X != 1.0 {
		t.Fatalf("last row x = %v, want 1.0", tab.Rows[last].X)
	}
	for i := range tab.Rows {
		for _, s := range tab.Series {
			v := seriesAt(t, tab, i, s)
			if v <= 0 || v > 100 {
				t.Errorf("row %d series %s: benefit %v%% out of range", i, s, v)
			}
		}
	}
	// Proactivity cannot beat greedy by a wide margin (the paper's
	// overflow-time greedy is already near-optimal); allow 5 points.
	greedyCrafted := seriesAt(t, tab, last, "crafted")
	for i := range tab.Rows {
		if v := seriesAt(t, tab, i, "crafted"); v > greedyCrafted+5 {
			t.Errorf("threshold %v beats greedy by %v points — suspicious", tab.Rows[i].X, v-greedyCrafted)
		}
	}
}

func TestTableJitter(t *testing.T) {
	tab := run(t, "jitter")
	reg0 := seriesAt(t, tab, 0, "regulated")
	for i, r := range tab.Rows {
		unreg := seriesAt(t, tab, i, "unregulated")
		reg := seriesAt(t, tab, i, "regulated")
		if reg != reg0 {
			t.Errorf("J=%v: regulated playback %v changed from %v — regulator leaky", r.X, reg, reg0)
		}
		if unreg > reg+1e-9 {
			t.Errorf("J=%v: unregulated %v above regulated %v", r.X, unreg, reg)
		}
	}
	// Jitter must actually hurt the naive client at the high end.
	last := len(tab.Rows) - 1
	if seriesAt(t, tab, last, "unregulated") >= reg0 {
		t.Error("max jitter did not hurt the unregulated client")
	}
}

func TestTableGlitch(t *testing.T) {
	tab := run(t, "glitch")
	for i, r := range tab.Rows {
		tdLong := seriesAt(t, tab, i, "taildrop-longest")
		grLong := seriesAt(t, tab, i, "greedy-longest")
		// Greedy's glitches must be much shorter at moderate buffers: it
		// sheds B frames (1-frame skips), taildrop loses anchors
		// (GOP-length freezes).
		if r.X >= 2 && grLong > tdLong/2 {
			t.Errorf("m=%v: greedy longest glitch %v not far below taildrop %v", r.X, grLong, tdLong)
		}
		for _, s := range tab.Series {
			if v := seriesAt(t, tab, i, s); v < 0 {
				t.Errorf("negative value %v in %s", v, s)
			}
		}
	}
}

func TestTableAdaptive(t *testing.T) {
	tab := run(t, "adaptive")
	for i := 1; i < len(tab.Rows); i++ {
		// Renegotiation frequency strictly falls with the window.
		prev := seriesAt(t, tab, i-1, "renegs/kstep")
		cur := seriesAt(t, tab, i, "renegs/kstep")
		if cur >= prev {
			t.Errorf("renegotiations did not fall: %v then %v", prev, cur)
		}
	}
	// Tight tracking (small window) must be lossless or nearly so.
	if v := seriesAt(t, tab, 0, "wloss%"); v > 1 {
		t.Errorf("smallest window lost %v%%", v)
	}
	// Reservation stays within sane bounds.
	for i := range tab.Rows {
		if v := seriesAt(t, tab, i, "mean-reserved/avg"); v < 0.9 || v > 2 {
			t.Errorf("row %d: mean reserved %v x avg out of range", i, v)
		}
	}
}

func TestTableAdmission(t *testing.T) {
	tab := run(t, "admission")
	for i, r := range tab.Rows {
		bound := seriesAt(t, tab, i, "chernoff-bound")
		measured := seriesAt(t, tab, i, "measured-bufferless")
		if bound < 0 || bound > 1 || measured < 0 || measured > 1 {
			t.Errorf("K=%v: probabilities out of range: bound %v measured %v", r.X, bound, measured)
		}
		// The bound must hold (small finite-sample slack).
		if measured > bound*1.5+0.01 {
			t.Errorf("K=%v: measured %v violates Chernoff bound %v", r.X, measured, bound)
		}
		// Overflow grows with K.
		if i > 0 && measured < seriesAt(t, tab, i-1, "measured-bufferless")-1e-9 {
			t.Errorf("measured overflow decreased at K=%v", r.X)
		}
	}
}

func TestTableRobust(t *testing.T) {
	tab := run(t, "robust")
	if len(tab.Rows) != 3 {
		t.Fatalf("expected 3 profiles, got %d", len(tab.Rows))
	}
	for i, r := range tab.Rows {
		gMax := seriesAt(t, tab, i, "greedy-max")
		tdMin := seriesAt(t, tab, i, "taildrop-min")
		// The headline: greedy's WORST case beats taildrop's BEST case on
		// every profile.
		if gMax >= tdMin {
			t.Errorf("profile %v: greedy worst %v not below taildrop best %v", r.X, gMax, tdMin)
		}
		if seriesAt(t, tab, i, "greedy-min") > gMax {
			t.Errorf("profile %v: min above max", r.X)
		}
		if seriesAt(t, tab, i, "idc256") <= 0 {
			t.Errorf("profile %v: non-positive burstiness index", r.X)
		}
	}
}

func TestTableSmartWeights(t *testing.T) {
	tab := run(t, "smartweights")
	for i, r := range tab.Rows {
		paper := seriesAt(t, tab, i, "paper-12-8-1")
		smart := seriesAt(t, tab, i, "dependency-derived")
		tail := seriesAt(t, tab, i, "taildrop-reference")
		// Both value-aware weightings decode at least as much as the
		// value-blind reference at moderate buffers, and agree with each
		// other (the ordinal-equivalence finding).
		if r.X >= 2 {
			if paper <= tail || smart <= tail {
				t.Errorf("m=%v: weighted greedy (%v/%v) not above taildrop %v", r.X, paper, smart, tail)
			}
		}
		if diff := paper - smart; diff > 2 || diff < -2 {
			t.Errorf("m=%v: weightings diverge: %v vs %v", r.X, paper, smart)
		}
	}
}

func TestTableFairness(t *testing.T) {
	tab := run(t, "fairness")
	for i, r := range tab.Rows {
		js := seriesAt(t, tab, i, "jain-shared")
		if js < 0.99 {
			t.Errorf("rate %v: shared smoothing unfair: Jain %v", r.X, js)
		}
		ws := seriesAt(t, tab, i, "wloss-shared")
		wp := seriesAt(t, tab, i, "wloss-partitioned")
		if ws > wp+1e-9 {
			t.Errorf("rate %v: shared loss %v above partitioned %v", r.X, ws, wp)
		}
	}
}
