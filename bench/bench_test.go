package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The self-test runs every workload at -short size (1 seed per scheme,
// 2 s measure, 1 set-up, 1 round) through both passes.

func shortOptions() options { return options{seed: 1, short: true, setups: 1} }

func runShort(t *testing.T, name string, opt options, traced bool) outcome {
	t.Helper()
	w, err := newWorkload(name, opt, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		return w.layers(newTracer())
	}
	return measure([]workload{w}, opt)[0]
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, workload string, o outcome, specs []metricSpec, nonZero bool) {
	t.Helper()
	if o.failed != 0 || o.attempted < 1 {
		t.Errorf("%s: %d of %d operations failed: %v", workload, o.failed, o.attempted, o.failures)
	}
	if len(o.metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, %d declared", workload, len(o.metrics), len(specs))
	}
	for _, s := range specs {
		v, ok := o.metrics[s.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", workload, s.Name)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: %s = %v", workload, s.Name, v.Value)
		}
		if nonZero && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, s.Name, v.Value)
		}
	}
}

func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	for _, s := range workloadSpecs {
		checkMetrics(t, s.Name, runShort(t, s.Name, shortOptions(), false), endToEndSpecs, true)
	}
}

// exactCounts are the per-layer metrics that must repeat bit for bit when
// the same seed is run again.
func exactCounts(o outcome) map[string]float64 {
	exact := map[string]float64{}
	for _, s := range perLayerSpecs {
		if s.Unit == "count" || strings.HasPrefix(s.Name, "traffic.") || strings.HasPrefix(s.Name, "journey.share") {
			exact[s.Name] = o.metrics[s.Name].Value
		}
	}
	return exact
}

func TestEveryWorkloadEmitsEveryLayerMetricAndCountsRepeat(t *testing.T) {
	for _, s := range workloadSpecs {
		first := runShort(t, s.Name, shortOptions(), true)
		checkMetrics(t, s.Name, first, perLayerSpecs, false)
		for _, must := range []string{"des.events", "radio.transmissions", "mac.tx_data", "traffic.delivered", "des.hold_ns", "radio.tx_ns", "mac.exchange_ns", "ledger.coverage", "trace.overhead_ratio"} {
			if first.metrics[must].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", s.Name, must, first.metrics[must].Value)
			}
		}
		again := runShort(t, s.Name, shortOptions(), true)
		if a, b := exactCounts(first), exactCounts(again); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same-seed reruns disagree on exact counts:\n%v\n%v", s.Name, a, b)
		}
	}
	serve := runShort(t, wlServeMix, shortOptions(), true)
	for _, must := range []string{"serve.miss_p50_ms", "serve.hit_p50_us", "serve.engine_runs", "serve.req_per_s", "experiments.cells_per_s_w1"} {
		if serve.metrics[must].Value <= 0 {
			t.Errorf("serve_mix: %s = %v, want > 0", must, serve.metrics[must].Value)
		}
	}
}

func TestDifferentSeedsGiveDifferentInputs(t *testing.T) {
	a := runShort(t, wlPaper49, shortOptions(), true)
	opt := shortOptions()
	opt.seed = 2
	b := runShort(t, wlPaper49, opt, true)
	if a.metrics["des.events"].Value == b.metrics["des.events"].Value {
		t.Errorf("seeds 1 and 2 executed the same number of events (%v)", a.metrics["des.events"].Value)
	}
}

func TestInjectedFaultsFailOperations(t *testing.T) {
	opt := shortOptions()
	opt.inject.runError = true
	if o := runShort(t, wlPaper49, opt, false); o.failed == 0 {
		t.Error("an injected run error did not raise failed above 0")
	}
	opt = shortOptions()
	opt.inject.corruptHit = true
	o := runShort(t, wlServeMix, opt, false)
	if o.failed == 0 {
		t.Error("a corrupted hit body did not raise failed above 0")
	}
	if !strings.Contains(strings.Join(o.failures, "\n"), "hit_body_differs") {
		t.Errorf("corrupted hit body not reported by name: %v", o.failures)
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json, which the driver
// reads, identical to the declarations the harness prints from.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Workloads, workloadSpecs) {
		t.Errorf("BENCHMARK.json workloads differ from spec.go")
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndSpecs) {
		t.Errorf("BENCHMARK.json end_to_end differs from spec.go")
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerSpecs) {
		t.Errorf("BENCHMARK.json per_layer differs from spec.go")
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}

	// The contract's limits on names, units, reasons and bounds.
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadSpecs {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(endToEndSpecs) > 16 || len(perLayerSpecs) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEndSpecs), len(perLayerSpecs))
	}
	setup := false
	for _, s := range append(append([]metricSpec{}, endToEndSpecs...), perLayerSpecs...) {
		name(s.Name)
		if !unitRE.MatchString(s.Unit) || (s.Better != "lower" && s.Better != "higher") || s.Bound < 0 || s.Bound > 0.25 {
			t.Errorf("metric %+v outside the contract", s)
		}
		setup = setup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

func TestCompareVerdicts(t *testing.T) {
	write := func(name string, speed, q1, q3 float64) string {
		f := resultFile{Workloads: map[string]workloadResult{wlPaper49: {Attempted: 1, Metrics: map[string]metricValue{
			"sim_s_per_wall_s": {Value: speed, Q1: q1, Q3: q3, N: 5},
		}}}}
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", 1000, 990, 1010)
	verdict := func(change string) (int, string) {
		var out bytes.Buffer
		code, err := compareFiles(&out, parent, change)
		if err != nil {
			t.Fatal(err)
		}
		return code, out.String()
	}
	bound := specByName(endToEndSpecs)["sim_s_per_wall_s"].Bound
	within, beyond := 1000*(1-bound/2), 1000*(1-bound*1.5)
	if code, text := verdict(write("same.json", within, within-10, within+10)); code != 0 || !strings.Contains(text, " ok ") {
		t.Errorf("slower by half the bound: exit %d\n%s", code, text)
	}
	if code, text := verdict(write("slow.json", beyond, beyond-10, beyond+10)); code != 1 || !strings.Contains(text, "regressed") {
		t.Errorf("slower by 1.5 bounds: exit %d\n%s", code, text)
	}
	if code, text := verdict(write("noisy.json", 1000, 1000*(1-bound), 1000*(1+bound))); code != 0 || !strings.Contains(text, "unresolved") {
		t.Errorf("spread wider than the bound: exit %d\n%s", code, text)
	}
}
