// Command bench is the repository's benchmark: six named workloads, the
// end-to-end metrics a user of the simulator and of meshsimd would see,
// and a per-layer ledger measured from outside the layers in a separate
// traced pass. README.md in this directory says how to run and read it;
// spec.go declares the names; BENCHMARK.json repeats them for the driver.
//
//	bench --workload paper49 --seed 1 --seconds 12 --trace 0
//	bench --seed 1                      (all workloads, rounds interleaved)
//	bench --trace 1                     (per-layer pass, writes trace.json)
//	bench --compare a.json b.json       (regression verdicts, exit 1 if any)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	seed    uint64
	seconds float64
	short   bool
	setups  int
	inject  injection
}

// injection lets the self-test prove that the correctness checks can
// fail: a run that reports an error, a hit body that differs by one byte.
type injection struct {
	runError   bool
	corruptHit bool
}

// metricValue is one reported number. A timing metric is the median over
// N rounds (or set-ups), with the quartiles over those rounds beside it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

func summarize(xs []float64) metricValue {
	return metricValue{Value: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metricValue
}

// checker counts failed operations and keeps the first few by name.
type checker struct {
	failed   int
	failures []string
}

func (c *checker) check(ok bool, name, format string, args ...any) bool {
	if !ok {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, name+": "+fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (c *checker) outcome(attempted int) outcome {
	attempted = max(attempted, 1)
	return outcome{attempted: attempted, failed: min(c.failed, attempted), failures: c.failures}
}

// workload is what the runner needs: repeatable set-up, timed rounds, and
// either the end-to-end summary or the traced per-layer pass.
type workload interface {
	workloadName() string
	setup()
	round() time.Duration
	finish() outcome
	layers(tr *tracer) outcome
}

func newWorkload(name string, opt options, tmpRoot string) (workload, error) {
	for i, s := range workloadSpecs {
		if s.Name != name {
			continue
		}
		if name == wlServeMix {
			return newServeWorkload(i, opt, tmpRoot)
		}
		return newEngineWorkload(name, i, opt), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setupRepeats bounds how often a workload is set up in one run: at least
// opt.setups times, and a cheap set-up (serve_mix's takes 40 ms) up to
// three times as often while it has used less than two seconds, so that
// the median of a short, jittery set-up rests on more samples.
func setupRepeats(w workload, opt options) {
	t := time.Now()
	for i := 0; i < opt.setups || (i < 3*opt.setups && time.Since(t) < 2*time.Second); i++ {
		w.setup()
	}
}

// measure runs the untraced pass: every workload is set up several times
// (setup_s is the median), then rounds of the workloads are interleaved
// round-robin, so machine drift lands on all of them alike, until each
// has been timed for opt.seconds.
func measure(ws []workload, opt options) []outcome {
	for _, w := range ws {
		setupRepeats(w, opt)
	}
	runtime.GC()
	elapsed := make([]time.Duration, len(ws))
	rounds := make([]int, len(ws))
	budget := time.Duration(opt.seconds * float64(time.Second))
	for active := true; active; {
		active = false
		for i, w := range ws {
			// Stop at the round boundary nearest the budget.
			if rounds[i] > 0 && elapsed[i]+elapsed[i]/time.Duration(2*rounds[i]) > budget {
				continue
			}
			elapsed[i] += w.round()
			rounds[i]++
			active = true
		}
	}
	out := make([]outcome, len(ws))
	for i, w := range ws {
		out[i] = w.finish()
	}
	return out
}

func traceAll(ws []workload, tr *tracer) []outcome {
	out := make([]outcome, len(ws))
	for i, w := range ws {
		tr.workload = w.workloadName()
		tr.begin("workload")
		out[i] = w.layers(tr)
		tr.end()
	}
	return out
}

// ---- output ----

type workloadResult struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type resultFile struct {
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Trace     bool                      `json:"trace"`
	Commit    string                    `json:"commit"`
	NProc     int                       `json:"nproc"`
	GoVersion string                    `json:"go_version"`
	Workloads map[string]workloadResult `json:"workloads"`
}

func withUnits(o outcome, specs []metricSpec) workloadResult {
	units := specByName(specs)
	for name, v := range o.metrics {
		v.Unit = units[name].Unit
		o.metrics[name] = v
	}
	return workloadResult{o.attempted, o.failed, o.failures, o.metrics}
}

func printTable(name string, r workloadResult, specs []metricSpec) {
	fmt.Printf("\n%s: %d operations attempted, %d failed\n", name, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	for _, s := range specs {
		v := r.Metrics[s.Name]
		line := fmt.Sprintf("  %-28s %14.6g %-8s", s.Name, v.Value, v.Unit)
		if v.N > 1 {
			line += fmt.Sprintf(" q1 %.6g q3 %.6g n %d", v.Q1, v.Q3, v.N)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// driverLine is the contract's last line: one JSON object with exactly
// correct, attempted, failed and metrics (value and unit each).
func driverLine(r workloadResult) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]mv{}}
	for name, v := range r.Metrics {
		line.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		// Only a NaN or infinite metric can fail to encode.
		return fmt.Sprintf(`{"correct":false,"attempted":%d,"failed":%d,"metrics":{}}`, r.Attempted, max(r.Failed, 1))
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "", "comma-separated workloads to run (default: all six)")
	seed := fs.Uint64("seed", 1, "benchmark seed: every simulation seed and the request mix derive from it")
	seconds := fs.Float64("seconds", 12, "timed seconds per workload (untraced pass)")
	trace := fs.Int("trace", 0, "1 = traced per-layer pass instead of the end-to-end pass")
	outDir := fs.String("out", "bench/out", "directory for result.json, trace.json and temporary cache directories")
	short := fs.Bool("short", false, "self-test sizes: 1 seed per scheme, 2 s measure, 1 set-up, 1 round")
	compare := fs.Bool("compare", false, "compare two result files (or comma-separated lists of them): bench --compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if *compare {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("--compare needs two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}

	opt := options{seed: *seed, seconds: *seconds, short: *short, setups: 5}
	if opt.short {
		opt.setups, opt.seconds = 1, 0 // one round
	}
	var names []string
	for _, s := range workloadSpecs {
		names = append(names, s.Name)
	}
	if *workloadFlag != "" {
		names = strings.Split(*workloadFlag, ",")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return 1, err
	}
	tmpRoot, err := os.MkdirTemp(*outDir, "tmp-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmpRoot)
	var ws []workload
	for _, n := range names {
		w, err := newWorkload(n, opt, tmpRoot)
		if err != nil {
			return 2, err
		}
		ws = append(ws, w)
	}

	specs := endToEndSpecs
	var outcomes []outcome
	suffix := ""
	if *trace != 0 {
		specs = perLayerSpecs
		tr := newTracer()
		outcomes = traceAll(ws, tr)
		if err := tr.write(*outDir); err != nil {
			return 1, fmt.Errorf("writing trace: %w", err)
		}
		suffix = "-trace"
	} else {
		outcomes = measure(ws, opt)
	}

	file := resultFile{
		Seed: opt.seed, Seconds: opt.seconds, Trace: *trace != 0,
		Commit: buildCommit(), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Workloads: map[string]workloadResult{},
	}
	fmt.Printf("bench: seed %d, %s, nproc %d, serve_mix traffic is in-process (httptest, no socket)\n",
		opt.seed, runtime.Version(), runtime.NumCPU())
	failed := 0
	var last workloadResult
	for i, o := range outcomes {
		last = withUnits(o, specs)
		file.Workloads[names[i]] = last
		printTable(names[i], last, specs)
		failed += last.Failed
	}
	if err := writeJSON(filepath.Join(*outDir, "result"+suffix+".json"), file); err != nil {
		return 1, fmt.Errorf("writing result: %w", err)
	}
	if len(outcomes) == 1 {
		fmt.Println(driverLine(last))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d failed operations\n", failed)
	}
	return 0, nil
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// ---- compare ----

// side is one side of a comparison: for every workload and end-to-end
// metric, the value each result file of that side reported.
type side map[string]map[string][]metricValue

func loadSide(list string) (side, error) {
	s := side{}
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for wl, r := range f.Workloads {
			if s[wl] == nil {
				s[wl] = map[string][]metricValue{}
			}
			for name, v := range r.Metrics {
				s[wl][name] = append(s[wl][name], v)
			}
		}
	}
	return s, nil
}

// centre is a side's median and inter-quartile spread for one metric:
// across its files when there are several, else the quartiles the single
// run recorded over its own rounds.
func centre(vs []metricValue) (med, spread float64) {
	if len(vs) == 1 {
		return vs[0].Value, vs[0].Q3 - vs[0].Q1
	}
	xs := make([]float64, len(vs))
	for i, v := range vs {
		xs[i] = v.Value
	}
	return median(xs), quantile(xs, 0.75) - quantile(xs, 0.25)
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the ratio with its base, the bound and a verdict. regressed: the change
// is worse than the parent by more than the bound. unresolved: it is not,
// but either side's spread is wider than the bound, so "unchanged" is not
// shown. Exit status 1 on any regressed.
func compareFiles(out io.Writer, parentList, changeList string) (int, error) {
	parent, err := loadSide(parentList)
	if err != nil {
		return 2, err
	}
	change, err := loadSide(changeList)
	if err != nil {
		return 2, err
	}
	var wls []string
	for wl := range parent {
		if _, ok := change[wl]; ok {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	regressed := 0
	fmt.Fprintf(out, "%-12s %-18s %14s %14s %9s %6s  %s\n", "workload", "metric", "parent", "change", "ratio", "bound", "verdict")
	for _, wl := range wls {
		for _, s := range endToEndSpecs {
			pv, cv := parent[wl][s.Name], change[wl][s.Name]
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			pm, ps := centre(pv)
			cm, cs := centre(cv)
			worse := cm/pm - 1 // share of the parent's median by which the change is worse
			if s.Better == "higher" {
				worse = 1 - cm/pm
			}
			verdict := "ok"
			switch {
			case math.IsNaN(worse) || worse > s.Bound:
				verdict = "regressed"
				regressed++
			case ps/pm > s.Bound || cs/cm > s.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-12s %-18s %14.6g %14.6g %8.3fx %6.2f  %s (change/parent, spread %.1f%%/%.1f%%)\n",
				wl, s.Name, pm, cm, cm/pm, s.Bound, verdict, 100*ps/pm, 100*cs/cm)
		}
	}
	if regressed > 0 {
		return 1, nil
	}
	return 0, nil
}
