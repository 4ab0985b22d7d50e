package experiments

import (
	"errors"
	"os"
	"strings"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/sim"
)

// tinyConfig shrinks everything to smoke-test the figure plumbing.
func tinyConfig() Config {
	return Config{Reps: 2, Workers: 0, Seed: 7, Quick: true}
}

// runFig runs the sweep holding figure id through Run and returns that
// figure, with Run's error.
func runFig(cfg Config, id string) (Figure, error) {
	figs, err := Run(cfg, id)
	for _, f := range figs {
		if f.ID == id {
			return f, err
		}
	}
	return Figure{}, err
}

// figureIDs lists the IDs of figs in order.
func figureIDs(figs []Figure) []string {
	ids := make([]string, len(figs))
	for i, f := range figs {
		ids[i] = f.ID
	}
	return ids
}

func TestFigR1R2Shapes(t *testing.T) {
	figs, err := Run(tinyConfig(), "F-R2")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(figureIDs(figs), " "); got != "F-R1 F-R2" {
		t.Fatalf("Run(F-R2) returned %s, want the discovery sweep F-R1 F-R2", got)
	}
	r1, r2 := figs[0], figs[1]
	if len(r1.Points) == 0 || len(r2.Points) == 0 {
		t.Fatal("empty figures")
	}
	// Flood must have the highest RREQ count at every size.
	xs, schemes := r1.axes()
	if len(schemes) < 3 {
		t.Fatalf("schemes %v", schemes)
	}
	for _, x := range xs {
		flood, ok := r1.index().lookup(x, "flood", "rreq/discovery")
		if !ok {
			t.Fatalf("missing flood point at %v", x)
		}
		for _, s := range schemes {
			v, ok := r1.index().lookup(x, s, "rreq/discovery")
			if !ok {
				t.Fatalf("missing %s point at %v", s, x)
			}
			if v.Mean > flood.Mean*1.05 {
				t.Errorf("%s rreq %.1f exceeds flood %.1f at %v nodes", s, v.Mean, flood.Mean, x)
			}
		}
	}
	// Unloaded discovery success must be high for every scheme.
	for _, p := range r2.Points {
		if s := p.Values["success"]; s.Mean < 0.8 {
			t.Errorf("%s success %.2f at %v nodes", p.Scheme, s.Mean, p.X)
		}
	}
	// RREQ per discovery grows with network size for flood.
	first, _ := r1.index().lookup(xs[0], "flood", "rreq/discovery")
	last, _ := r1.index().lookup(xs[len(xs)-1], "flood", "rreq/discovery")
	if last.Mean <= first.Mean {
		t.Errorf("flood overhead did not grow with size: %.1f -> %.1f", first.Mean, last.Mean)
	}
}

func TestTabR2AndRendering(t *testing.T) {
	f, err := runFig(tinyConfig(), "T-R2")
	if err != nil {
		t.Fatal(err)
	}
	table := f.Table()
	for _, want := range []string{"T-R2", "pdr", "flood", "clnlr"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := f.CSV()
	if !strings.HasPrefix(csv, "figure,x,scheme,metric,mean,ci95,n\n") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	lines := strings.Count(csv, "\n")
	if lines < 6 {
		t.Fatalf("csv has only %d lines", lines)
	}
}

func TestTabR1Static(t *testing.T) {
	s := TabR1()
	for _, want := range []string{"T-R1", "250 m", "DCF", "CLNLR"} {
		if !strings.Contains(s, want) {
			t.Errorf("parameter table missing %q", want)
		}
	}
}

func TestFigR6GatewayConcentration(t *testing.T) {
	f, err := runFig(tinyConfig(), "F-R6")
	if err != nil {
		t.Fatal(err)
	}
	// The gateway workload must concentrate forwarding more than the
	// uniform workload for every scheme.
	for _, scheme := range []string{"flood", "clnlr"} {
		uni, ok1 := f.index().lookup(0, scheme, "fwd-max/mean")
		gw, ok2 := f.index().lookup(1, scheme, "fwd-max/mean")
		if !ok1 || !ok2 {
			t.Fatalf("missing %s points", scheme)
		}
		if gw.Mean <= uni.Mean {
			t.Errorf("%s: gateway max/mean %.2f not above uniform %.2f", scheme, gw.Mean, uni.Mean)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	d := DefaultConfig()
	if d.Reps != 10 || d.Quick {
		t.Fatalf("default config %+v", d)
	}
	q := QuickConfig()
	if !q.Quick || q.Reps >= d.Reps {
		t.Fatalf("quick config %+v", q)
	}
}

func TestFigureCharts(t *testing.T) {
	f, err := runFig(tinyConfig(), "T-R2")
	if err != nil {
		t.Fatal(err)
	}
	charts := f.Charts()
	if !strings.Contains(charts, "T-R2") || !strings.Contains(charts, "flood") {
		t.Fatalf("charts missing content:\n%s", charts)
	}
	if f.Chart("no-such-metric") != "" {
		t.Fatal("unknown metric rendered a chart")
	}
}

// checkFigure asserts structural sanity: every (x, scheme) cell exists for
// every declared metric, and values lie in sane ranges.
func checkFigure(t *testing.T, f Figure, wantPoints int) {
	t.Helper()
	if len(f.Points) != wantPoints {
		t.Fatalf("%s: %d points, want %d", f.ID, len(f.Points), wantPoints)
	}
	for _, p := range f.Points {
		for _, m := range f.Metrics {
			v, ok := p.Values[m]
			if !ok {
				t.Fatalf("%s: point (%v, %s) missing metric %s", f.ID, p.X, p.Scheme, m)
			}
			if v.N < 1 {
				t.Fatalf("%s: metric %s has no replications", f.ID, m)
			}
			if m == "pdr" && (v.Mean < 0 || v.Mean > 1) {
				t.Fatalf("%s: pdr %v out of range", f.ID, v.Mean)
			}
		}
	}
	if f.Table() == "" || f.CSV() == "" {
		t.Fatalf("%s: empty rendering", f.ID)
	}
}

func TestFigR3R4R7Structure(t *testing.T) {
	cfg := tinyConfig()
	figs, err := Run(cfg, "F-R4")
	if err != nil {
		t.Fatal(err)
	}
	// F-R4 shares its cells with F-R3 and F-R7: asking for it returns the
	// whole offered-load sweep, in suite order.
	if got := strings.Join(figureIDs(figs), " "); got != "F-R3 F-R4 F-R7" {
		t.Fatalf("Run(F-R4) returned %s, want F-R3 F-R4 F-R7", got)
	}
	r3, r4, r7 := figs[0], figs[1], figs[2]
	points := len(loadRates(cfg)) * len(schemeSet(cfg))
	checkFigure(t, r3, points)
	checkFigure(t, r4, points)
	checkFigure(t, r7, points)
	// At the lowest load every scheme must deliver essentially everything.
	xs, schemes := r3.axes()
	for _, s := range schemes {
		v, ok := r3.index().lookup(xs[0], s, "pdr")
		if !ok || v.Mean < 0.95 {
			t.Errorf("%s PDR %.3f at lowest load", s, v.Mean)
		}
	}
}

func TestFigR5Structure(t *testing.T) {
	cfg := tinyConfig()
	f, err := runFig(cfg, "F-R5")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, len(flowCounts(cfg))*len(schemeSet(cfg)))
	// Throughput grows with flow count below saturation.
	xs, _ := f.axes()
	lo, _ := f.index().lookup(xs[0], "flood", "kbps")
	hi, _ := f.index().lookup(xs[len(xs)-1], "flood", "kbps")
	if hi.Mean <= lo.Mean {
		t.Errorf("throughput did not grow with flows: %.1f -> %.1f", lo.Mean, hi.Mean)
	}
}

func TestFigR8Structure(t *testing.T) {
	cfg := tinyConfig()
	f, err := runFig(cfg, "F-R8")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 4 { // quick config truncates the variant list
		t.Fatalf("ablation points %d", len(f.Points))
	}
	names := map[string]bool{}
	for _, p := range f.Points {
		names[p.Scheme] = true
	}
	if !names["clnlr-default"] || !names["beta0"] {
		t.Fatalf("ablation variants missing: %v", names)
	}
}

func TestFigR9Structure(t *testing.T) {
	cfg := tinyConfig()
	f, err := runFig(cfg, "F-R9")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, len(densityCounts(cfg))*len(schemeSet(cfg)))
}

func TestFigR10Structure(t *testing.T) {
	cfg := tinyConfig()
	f, err := runFig(cfg, "F-R10")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, len(mobilitySpeeds(cfg))*len(schemeSet(cfg)))
	// The static point must be present (speed 0).
	if _, ok := f.index().lookup(0, "flood", "pdr"); !ok {
		t.Fatal("static baseline point missing")
	}
}

func TestFigR11Structure(t *testing.T) {
	cfg := tinyConfig()
	f, err := runFig(cfg, "F-R11")
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, len(failureRates(cfg))*len(schemeSet(cfg)))
	// Node churn must not improve delivery: the fault-free baseline (rate 0)
	// dominates the churned point for every scheme.
	xs, schemes := f.axes()
	if xs[0] != 0 {
		t.Fatalf("fault-free baseline missing: xs=%v", xs)
	}
	for _, s := range schemes {
		base, ok1 := f.index().lookup(0, s, "pdr")
		churn, ok2 := f.index().lookup(xs[len(xs)-1], s, "pdr")
		if !ok1 || !ok2 {
			t.Fatalf("missing %s points", s)
		}
		if churn.Mean > base.Mean+0.02 {
			t.Errorf("%s: pdr %.3f under churn above fault-free %.3f", s, churn.Mean, base.Mean)
		}
	}
}

// TestPlannerContainsPanics poisons one cell's replications via the
// engine-run hook and asserts the sweep survives: healthy cells finalize,
// the poisoned cell is skipped, and the failures come back in a
// *PartialError naming each seed with the recovered stack.
func TestPlannerContainsPanics(t *testing.T) {
	sim.TestHookRun = func(sc sim.Scenario) {
		if sc.Scheme == sim.SchemeGossip {
			panic("injected: poisoned cell")
		}
	}
	defer func() { sim.TestHookRun = nil }()

	cfg := Config{Reps: 2, Workers: 2, Seed: 11, Quick: true}
	p := newPlanner(cfg)
	small := func(s sim.Scheme) sim.Scenario {
		sc := baseScenario(cfg).WithScheme(s)
		sc.Warmup = des.Second
		sc.Measure = 4 * des.Second
		sc.Flows = 5
		return sc
	}
	finalized := map[string]bool{}
	p.add("healthy", small(sim.SchemeCLNLR), func(c *cell) { finalized["healthy"] = true })
	p.add("poisoned", small(sim.SchemeGossip), func(c *cell) { finalized["poisoned"] = true })

	err := p.run()
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %v", err)
	}
	if len(pe.Failures) != cfg.Reps {
		t.Fatalf("failures %d, want %d (one per poisoned replication)", len(pe.Failures), cfg.Reps)
	}
	seeds := map[uint64]bool{}
	for _, f := range pe.Failures {
		if f.Label != "poisoned" {
			t.Errorf("failure label %q, want poisoned", f.Label)
		}
		seeds[f.Seed] = true
		var panicErr *PanicError
		if !errors.As(f.Err, &panicErr) {
			t.Errorf("failure err %T, want *PanicError", f.Err)
		} else if len(panicErr.Stack) == 0 {
			t.Error("recovered panic has no stack")
		}
	}
	if !seeds[11] || !seeds[12] {
		t.Errorf("failed seeds %v, want {11, 12}", seeds)
	}
	if !finalized["healthy"] {
		t.Error("healthy cell was not finalized")
	}
	if finalized["poisoned"] {
		t.Error("poisoned cell was finalized despite failures")
	}
	if !strings.Contains(err.Error(), "poisoned seed=11") {
		t.Errorf("error does not name the failing cell/seed:\n%v", err)
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite takes ~1 min")
	}
	figs, err := Run(Config{Reps: 2, Workers: 0, Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	const want = "F-R1 F-R2 F-R3 F-R4 F-R7 F-R5 F-R6 T-R2 F-R8 F-R9 F-R10 F-R11"
	if got := strings.Join(figureIDs(figs), " "); got != want {
		t.Fatalf("Run() returned %s, want the whole suite %s", got, want)
	}
	for _, f := range figs {
		if len(f.Points) == 0 {
			t.Errorf("%s has no points", f.ID)
		}
	}
}

// TestRunRejectsUnknownFigure: an unknown ID is an error naming the known
// IDs, and nothing runs — not even the manifest is written.
func TestRunRejectsUnknownFigure(t *testing.T) {
	cfg := tinyConfig()
	cfg.ReportDir = t.TempDir()
	figs, err := Run(cfg, "F-R5", "F-R99")
	if err == nil || !strings.Contains(err.Error(), `"F-R99"`) || !strings.Contains(err.Error(), "F-R11") {
		t.Fatalf("Run(F-R99) = %v, want an error naming F-R99 and the known IDs", err)
	}
	if figs != nil {
		t.Errorf("Run(F-R99) returned %d figures", len(figs))
	}
	if files, _ := os.ReadDir(cfg.ReportDir); len(files) != 0 {
		t.Errorf("Run(F-R99) wrote %d files into the report directory", len(files))
	}
}

// TestEveryFigureCellValidates: every cell the full and the quick suite
// plan passes Scenario.Validate, MAC checks included.
func TestEveryFigureCellValidates(t *testing.T) {
	for name, cfg := range map[string]Config{"full": DefaultConfig(), "quick": QuickConfig()} {
		p := newPlanner(cfg)
		for _, s := range suite {
			s.plan(p)
		}
		if len(p.cells) == 0 {
			t.Fatalf("%s suite planned no cells", name)
		}
		for _, c := range p.cells {
			if err := c.sc.Validate(); err != nil {
				t.Errorf("%s suite, cell %s: %v", name, c.label, err)
			}
		}
	}
}
