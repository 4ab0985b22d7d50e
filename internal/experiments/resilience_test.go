package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clnlr/internal/des"
	"clnlr/internal/node"
	"clnlr/internal/sim"
)

// readCellFile loads one checkpoint by label.
func readCellFile(t *testing.T, dir, label string) CellReport {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, cellFileName(label)))
	if err != nil {
		t.Fatal(err)
	}
	var rep CellReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// countCellFiles returns the number of cell checkpoints (manifest excluded).
func countCellFiles(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range files {
		if filepath.Base(f) != manifestFile {
			n++
		}
	}
	return n
}

// TestInterruptedResumeBitIdentical pins the sweep checkpoint contract: a
// sweep interrupted mid-run and then resumed must produce the figure an
// uninterrupted sweep produces, bit for bit, with the checkpointed cells
// loaded rather than re-run.
func TestInterruptedResumeBitIdentical(t *testing.T) {
	baseline, err := runFig(tinyConfig(), "F-R5")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.Workers = 1 // one worker: jobs run in registration order, so the cut point is deterministic
	cfg.ReportDir = dir
	// Interrupted is polled once at each job's start; letting exactly 7 of
	// the 12 jobs (6 cells × 2 reps) through completes cells 0–2 and leaves
	// cell 3 half-done.
	var polls atomic.Int32
	cfg.Interrupted = func() bool { return polls.Add(1) > 7 }

	_, err = runFig(cfg, "F-R5")
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted sweep returned %v, want ErrInterrupted", err)
	}
	var pe *PartialError
	if errors.As(err, &pe) {
		t.Fatalf("graceful drain reported failures: %v", pe)
	}
	if got := countCellFiles(t, dir); got != 3 {
		t.Fatalf("interrupted sweep checkpointed %d cells, want 3", got)
	}

	// Plant a sentinel in a completed checkpoint: loadCellReport ignores
	// Retries, and a loaded cell is never rewritten, so the sentinel
	// surviving the resume proves the cell was loaded, not re-run.
	label := "F-R5 flows=5 flood"
	sentinel := readCellFile(t, dir, label)
	sentinel.Retries = 99
	if err := atomicWriteJSON(filepath.Join(dir, cellFileName(label)), sentinel); err != nil {
		t.Fatal(err)
	}

	resumed := tinyConfig()
	resumed.ReportDir = dir
	resumed.Resume = true
	f, err := runFig(resumed, "F-R5")
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}
	if f.CSV() != baseline.CSV() {
		t.Errorf("resumed figure differs from the uninterrupted one:\n--- resumed\n%s--- baseline\n%s", f.CSV(), baseline.CSV())
	}
	if got := countCellFiles(t, dir); got != 6 {
		t.Errorf("resumed sweep left %d checkpoints, want 6", got)
	}
	if got := readCellFile(t, dir, label).Retries; got != 99 {
		t.Errorf("checkpointed cell was re-run on resume (sentinel %d, want 99)", got)
	}
}

// TestResumeRejectsMismatchedManifest pins the manifest guard: resuming
// into a directory written under a different sweep configuration must fail
// loudly instead of mixing checkpoints.
func TestResumeRejectsMismatchedManifest(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.ReportDir = dir
	if _, err := runFig(cfg, "F-R5"); err != nil {
		t.Fatal(err)
	}

	bad := tinyConfig()
	bad.Reps = cfg.Reps + 1
	bad.ReportDir = dir
	bad.Resume = true
	_, err := runFig(bad, "F-R5")
	if err == nil {
		t.Fatal("resume with a different replication count was accepted")
	}
	if !strings.Contains(err.Error(), "cannot resume") {
		t.Errorf("mismatch error does not say why: %v", err)
	}
}

// TestResumeRejectsOtherModelVersion: checkpoints written by a build of
// another model (here version 2, whose duplicate cache forgot live floods)
// are not results of this one, so resuming into their directory fails.
func TestResumeRejectsOtherModelVersion(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.ReportDir = dir
	if _, err := runFig(cfg, "F-R5"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.ModelVersion != sim.ModelVersion {
		t.Fatalf("manifest names model version %d, want %d", m.ModelVersion, sim.ModelVersion)
	}
	m.ModelVersion = 2
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Resume = true
	_, err = runFig(cfg, "F-R5")
	if err == nil {
		t.Fatal("resume into a version-2 directory was accepted")
	}
	if !strings.Contains(err.Error(), "model=2") || !strings.Contains(err.Error(), "cannot resume") {
		t.Errorf("mismatch error does not say why: %v", err)
	}
}

// TestWatchdogPoisonsStalledCell pins the stall path end to end: a
// replication whose simulated clock stops advancing (zero-delay event
// livelock) is killed by the watchdog, surfaces as a poisoned cell in the
// PartialError with a *des.StallError cause, and every other cell of the
// sweep survives.
func TestWatchdogPoisonsStalledCell(t *testing.T) {
	const stalled = "F-R5 flows=5 flood"
	sim.TestHookPrepared = func(simk *des.Sim, _ []*node.Node, sc sim.Scenario) {
		if sc.Flows != 5 || sc.Scheme != sim.SchemeFlood || sc.Seed != 7 {
			return
		}
		// Zero-delay livelock one second into the run: events keep firing
		// but simulated time stops advancing.
		simk.AtCall(des.Second, des.Func(func() {
			var spin func()
			spin = func() { simk.ScheduleCall(0, des.Func(spin), 0, 0) }
			spin()
		}), 0, 0)
	}
	defer func() { sim.TestHookPrepared = nil }()

	cfg := tinyConfig()
	cfg.StallBudget = 100 * time.Millisecond

	f, err := runFig(cfg, "F-R5")
	if err == nil {
		t.Fatal("stalled replication reported no error")
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("stalled sweep failed with %T (%v), want *PartialError", err, err)
	}
	if len(pe.Failures) != 1 {
		t.Fatalf("got %d failures, want exactly the stalled replication: %v", len(pe.Failures), pe)
	}
	fail := pe.Failures[0]
	if fail.Label != stalled || fail.Seed != 7 {
		t.Errorf("poisoned cell is %q seed=%d, want %q seed=7", fail.Label, fail.Seed, stalled)
	}
	var crash *PanicError
	if !errors.As(fail.Err, &crash) {
		t.Fatalf("failure cause %T (%v), want *PanicError", fail.Err, fail.Err)
	}
	if _, ok := crash.Value.(*des.StallError); !ok {
		t.Errorf("panic value %T (%v), want *des.StallError", crash.Value, crash.Value)
	}
	// All five unpoisoned cells must have been finalized.
	if got := len(f.Points); got != 5 {
		t.Errorf("figure has %d points, want 5 surviving cells", got)
	}
	for _, p := range f.Points {
		if p.X == 5 && p.Scheme == string(sim.SchemeFlood) {
			t.Errorf("poisoned cell leaked into the figure: %+v", p)
		}
	}
}

// TestRetryHealsTransientCrash pins the bounded retry: a replication that
// panics once and then behaves is re-run in place on a fresh engine, the
// cell completes with its retry counted in the checkpoint, and the figure
// is bit-identical to a never-crashed sweep.
func TestRetryHealsTransientCrash(t *testing.T) {
	baseline, err := runFig(tinyConfig(), "F-R5")
	if err != nil {
		t.Fatal(err)
	}

	var tripped atomic.Bool
	sim.TestHookRun = func(sc sim.Scenario) {
		if sc.Flows == 15 && sc.Scheme == sim.SchemeCLNLR && sc.Seed == 8 &&
			tripped.CompareAndSwap(false, true) {
			panic("injected transient crash")
		}
	}
	defer func() { sim.TestHookRun = nil }()

	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.ReportDir = dir
	cfg.Retries = 2

	f, err := runFig(cfg, "F-R5")
	if err != nil {
		t.Fatalf("retry did not heal the transient crash: %v", err)
	}
	if !tripped.Load() {
		t.Fatal("injected crash never fired — the test exercised nothing")
	}
	if f.CSV() != baseline.CSV() {
		t.Errorf("healed sweep differs from a clean one:\n--- healed\n%s--- baseline\n%s", f.CSV(), baseline.CSV())
	}
	rep := readCellFile(t, dir, "F-R5 flows=15 clnlr")
	if rep.Retries != 1 {
		t.Errorf("healed cell recorded %d retries, want 1", rep.Retries)
	}
}

// smallSpecs returns one short data-plane cell per scheme, base seed seed.
func smallSpecs(seed uint64, schemes ...sim.Scheme) []CellSpec {
	specs := make([]CellSpec, len(schemes))
	for i, s := range schemes {
		sc := baseScenario(tinyConfig()).WithScheme(s)
		sc.Seed = seed
		sc.Warmup = des.Second
		sc.Measure = 3 * des.Second
		sc.Flows = 4
		specs[i] = CellSpec{Label: "small " + string(s), Scenario: sc}
	}
	return specs
}

// TestPoolRunsEveryJobOnce: the planner's pool runs every (cell, rep) job
// exactly once, with one worker, with fewer workers than jobs and with
// more workers than jobs.
func TestPoolRunsEveryJobOnce(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	sim.TestHookRun = func(sc sim.Scenario) {
		mu.Lock()
		runs[fmt.Sprintf("%s seed=%d", sc.Scheme, sc.Seed)]++
		mu.Unlock()
	}
	defer func() { sim.TestHookRun = nil }()

	const reps = 3
	specs := smallSpecs(40, sim.SchemeFlood, sim.SchemeGossip, sim.SchemeCounter, sim.SchemeCLNLR)
	for _, workers := range []int{1, 3, 64} {
		clear(runs)
		if _, err := RunCells(Config{Reps: reps, Workers: workers}, specs); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(runs) != len(specs)*reps {
			t.Errorf("workers=%d: %d distinct jobs ran, want %d", workers, len(runs), len(specs)*reps)
		}
		for job, n := range runs {
			if n != 1 {
				t.Errorf("workers=%d: %s ran %d times", workers, job, n)
			}
		}
	}
}

// TestRetryHealsConcurrentCrashesInPlace: two reps of one cell each crash
// once, on two workers at the same time, and each is retried in place on
// its own worker. The cell heals with both retries counted and the report
// of a clean run. Under -race this also pins that the retry counts are per
// replication: the two workers write them with nothing ordering the writes.
func TestRetryHealsConcurrentCrashesInPlace(t *testing.T) {
	specs := smallSpecs(20, sim.SchemeCLNLR)
	base := specs[0].Scenario.Seed
	cfg := Config{Reps: 2, Workers: 3, Retries: 1, ReportDir: t.TempDir()}
	clean, err := RunCells(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}

	// meet returns a two-party barrier: each caller blocks until both have
	// arrived, or a deadline passes so a broken pool fails below instead of
	// hanging. It orders only what comes after it, never the retry-count
	// writes, which each worker makes between the two barriers.
	meet := func() (wait func(), arrived func() int32) {
		var n atomic.Int32
		all := make(chan struct{})
		return func() {
			if n.Add(1) == 2 {
				close(all)
			}
			select {
			case <-all:
			case <-time.After(5 * time.Second):
			}
		}, n.Load
	}
	// Both first attempts crash together, then both retries start together:
	// the two workers count their retries at the same time, and the first to
	// count is parked, its write still fresh, when the second counts. The
	// race detector catches a shared count in most single rounds; three
	// rounds make a miss unlikely.
	defer func() { sim.TestHookRun = nil }()
	for round := 0; round < 3; round++ {
		crash, crashArrived := meet()
		retry, retryArrived := meet()
		var crashed [2]atomic.Bool
		sim.TestHookRun = func(sc sim.Scenario) {
			rep := sc.Seed - base
			if rep >= 2 {
				return
			}
			if crashed[rep].CompareAndSwap(false, true) {
				crash()
				panic("injected transient crash")
			}
			retry()
		}
		cfg.ReportDir = t.TempDir()
		healed, err := RunCells(cfg, specs)
		if err != nil {
			t.Fatalf("in-place retries did not heal the crashes: %v", err)
		}
		if crashArrived() != 2 || retryArrived() != 2 {
			t.Fatalf("%d crashes and %d retries met, want 2 and 2 on two workers", crashArrived(), retryArrived())
		}
		if healed[0].Retries != 2 {
			t.Errorf("healed cell recorded %d retries, want 2", healed[0].Retries)
		}
		healed[0].Retries = 0
		want, _ := json.Marshal(clean[0])
		got, _ := json.Marshal(healed[0])
		if string(got) != string(want) {
			t.Errorf("healed cell differs from a clean run:\n--- healed\n%s\n--- clean\n%s", got, want)
		}
	}
}
