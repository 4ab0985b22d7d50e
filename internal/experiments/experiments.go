// Package experiments defines the reconstructed evaluation suite of the
// CLNLR paper (DESIGN.md §4): Run plans the requested figures/tables by ID
// onto one planner and returns Figures whose points are replication means
// with 95% confidence intervals. cmd/experiments renders them as aligned
// text and CSV; bench_test.go wraps each in a testing.B benchmark.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"clnlr/internal/des"
	"clnlr/internal/metrics"
	"clnlr/internal/plot"
	"clnlr/internal/sim"
	"clnlr/internal/stats"
)

// Config scales the suite.
type Config struct {
	// Reps is the number of replications per point.
	Reps int
	// Workers bounds the worker pool (≤0 = GOMAXPROCS).
	Workers int
	// Seed is the base seed; replication r of any point uses Seed+r.
	Seed uint64
	// Quick shrinks sweeps and replication counts for tests/benchmarks.
	Quick bool
	// Progress, when non-nil, receives live job registration/completion
	// for every planner run — the data source for the periodic progress
	// log and the expvar endpoint. It does not affect results.
	Progress *metrics.Progress
	// ReportDir, when non-empty, makes every data-plane replication run
	// with a counters-only metrics collector and writes one
	// machine-readable CellReport JSON per clean cell into the directory.
	// Determinism is unaffected: collection never changes a run's outcome.
	ReportDir string

	// JourneyEveryN, with ReportDir set, traces packet journeys on every
	// data-plane replication (1-in-N deterministic flow sampling, see
	// internal/journey) and folds the per-layer delay decomposition and
	// CLNLR decision-provenance summary into each cell's CellReport.
	// Journey hooks only observe: Results are bit-identical either way.
	JourneyEveryN int

	// Resume, with ReportDir set, skips every cell whose checkpoint in
	// ReportDir is complete and fingerprint-matched, loading its
	// replications instead of re-running them. Because every replication
	// is a pure function of its seed, a resumed sweep is bit-identical to
	// an uninterrupted one.
	Resume bool

	// Interrupted, when non-nil, is polled between replications; once it
	// returns true, workers finish their in-flight replication and stop.
	// The planner then checkpoints every completed cell as usual and
	// returns ErrInterrupted — the graceful-drain half of the
	// interrupt/resume contract.
	Interrupted func() bool

	// StallBudget, when positive, arms a per-replication watchdog: a
	// replication whose simulated clock makes no progress for this much
	// wall-clock time is killed (via des.Watch) and reported as a
	// poisoned cell, instead of hanging the sweep forever.
	StallBudget time.Duration

	// Retries bounds how many times a crashed (panicked or
	// watchdog-killed) replication is re-attempted on a fresh engine with
	// the same seed, in place on the worker it crashed on. A flaky
	// failure heals; a deterministic one fails Retries times and stays a
	// poisoned cell. RetryBackoff is the wait before each re-attempt.
	Retries      int
	RetryBackoff time.Duration

	// Audit enables the runtime invariant auditor (sim.Scenario.Audit) on
	// every data-plane replication; a cell whose scenario sets Audit is
	// audited either way. Results are bit-identical either way; a
	// violation fails the replication with a structured audit error.
	Audit bool
}

// DefaultConfig returns the full-fidelity suite configuration.
func DefaultConfig() Config {
	return Config{Reps: 10, Workers: 0, Seed: 1}
}

// QuickConfig returns a configuration sized for CI smoke runs.
func QuickConfig() Config {
	return Config{Reps: 3, Workers: 0, Seed: 1, Quick: true}
}

// Point is one (x, scheme) cell of a figure.
type Point struct {
	X      float64
	Scheme string
	Values map[string]stats.Summary
}

// Figure is one reconstructed figure/table: a set of metric series over a
// sweep variable, per scheme.
type Figure struct {
	ID      string
	Title   string
	XLabel  string
	Metrics []string
	Points  []Point
}

// Table renders the figure as aligned text, one block per metric.
func (f Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	xs, schemes := f.axes()
	idx := f.index()
	for _, metric := range f.Metrics {
		fmt.Fprintf(&b, "\n  %s (mean ± 95%% CI)\n", metric)
		fmt.Fprintf(&b, "  %12s", f.XLabel)
		for _, s := range schemes {
			fmt.Fprintf(&b, " %22s", s)
		}
		b.WriteString("\n")
		for _, x := range xs {
			fmt.Fprintf(&b, "  %12g", x)
			for _, s := range schemes {
				if v, ok := idx.lookup(x, s, metric); ok {
					fmt.Fprintf(&b, " %13.3f ±%7.3f", v.Mean, v.CI95)
				} else {
					fmt.Fprintf(&b, " %22s", "—")
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// CSV renders the figure as long-format CSV
// (figure,x,scheme,metric,mean,ci95,n).
func (f Figure) CSV() string {
	var b strings.Builder
	b.WriteString("figure,x,scheme,metric,mean,ci95,n\n")
	for _, p := range f.Points {
		for _, metric := range f.Metrics {
			v, ok := p.Values[metric]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%s,%g,%s,%s,%g,%g,%d\n",
				f.ID, p.X, p.Scheme, metric, v.Mean, v.CI95, v.N)
		}
	}
	return b.String()
}

// Chart renders one metric of the figure as an ASCII line chart (empty
// string if the metric has no points).
func (f Figure) Chart(metric string) string {
	xs, schemes := f.axes()
	idx := f.index()
	var series []plot.Series
	for _, scheme := range schemes {
		s := plot.Series{Name: scheme}
		for _, x := range xs {
			if v, ok := idx.lookup(x, scheme, metric); ok {
				s.X = append(s.X, x)
				s.Y = append(s.Y, v.Mean)
			}
		}
		series = append(series, s)
	}
	return plot.Render(plot.Options{
		Title:  fmt.Sprintf("%s — %s", f.ID, f.Title),
		XLabel: f.XLabel,
		YLabel: metric,
	}, series...)
}

// Charts renders every metric of the figure.
func (f Figure) Charts() string {
	var b strings.Builder
	for _, m := range f.Metrics {
		if c := f.Chart(m); c != "" {
			b.WriteString(c)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// axes returns the sorted sweep values and scheme names present.
func (f Figure) axes() ([]float64, []string) {
	xset := map[float64]bool{}
	sset := map[string]bool{}
	for _, p := range f.Points {
		xset[p.X] = true
		sset[p.Scheme] = true
	}
	xs := make([]float64, 0, len(xset))
	for x := range xset {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	schemes := make([]string, 0, len(sset))
	for s := range sset {
		schemes = append(schemes, s)
	}
	// Present in canonical order, not alphabetical. Labels outside the
	// canonical scheme list (e.g. F-R8's ablation variants) sort after it,
	// by name, so column order never depends on map iteration.
	order := map[string]int{}
	for i, s := range sim.AllSchemes() {
		order[string(s)] = i
	}
	rank := func(s string) int {
		if r, ok := order[s]; ok {
			return r
		}
		return len(order)
	}
	sort.Slice(schemes, func(i, j int) bool {
		ri, rj := rank(schemes[i]), rank(schemes[j])
		if ri != rj {
			return ri < rj
		}
		return schemes[i] < schemes[j]
	})
	return xs, schemes
}

// pointKey addresses one (x, scheme) cell of a figure.
type pointKey struct {
	x      float64
	scheme string
}

// pointIndex is a map over a figure's points, built once per render so
// cell lookups cost O(1) instead of a linear scan over Points for every
// (x, scheme, metric) combination.
type pointIndex map[pointKey]map[string]stats.Summary

func (f Figure) index() pointIndex {
	idx := make(pointIndex, len(f.Points))
	for _, p := range f.Points {
		idx[pointKey{p.X, p.Scheme}] = p.Values
	}
	return idx
}

func (idx pointIndex) lookup(x float64, scheme, metric string) (stats.Summary, bool) {
	v, ok := idx[pointKey{x, scheme}][metric]
	return v, ok
}

// baseScenario is the shared Table R-1 operating point for the data-plane
// experiments: session churn keeps route discovery active during the
// measurement window.
func baseScenario(cfg Config) sim.Scenario {
	sc := sim.DefaultScenario()
	sc.Seed = cfg.Seed
	sc.SessionTime = 10 * des.Second
	if cfg.Quick {
		sc.Measure = 30 * des.Second
		sc.Warmup = 5 * des.Second
	}
	return sc
}

// schemeSet returns the schemes compared in the headline figures.
func schemeSet(cfg Config) []sim.Scheme {
	if cfg.Quick {
		return []sim.Scheme{sim.SchemeFlood, sim.SchemeGossip, sim.SchemeCLNLR}
	}
	return sim.AllSchemes()
}
