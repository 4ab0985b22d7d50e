package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"clnlr/internal/metrics"
)

func TestSweepProgressAndCellReports(t *testing.T) {
	cfg := tinyConfig()
	cfg.Progress = metrics.NewProgress()
	cfg.ReportDir = t.TempDir()

	f, err := runFig(cfg, "F-R5")
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(flowCounts(cfg)) * len(schemeSet(cfg))
	checkFigure(t, f, wantCells)

	s := cfg.Progress.Snapshot()
	if s.JobsTotal != wantCells*cfg.Reps || s.JobsDone != s.JobsTotal {
		t.Errorf("progress %d/%d jobs, want %d complete", s.JobsDone, s.JobsTotal, wantCells*cfg.Reps)
	}
	if s.CellsDone != wantCells || s.CellsTotal != wantCells {
		t.Errorf("progress %d/%d cells, want %d complete", s.CellsDone, s.CellsTotal, wantCells)
	}

	all, err := filepath.Glob(filepath.Join(cfg.ReportDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	sawManifest := false
	for _, f := range all {
		if filepath.Base(f) == manifestFile {
			sawManifest = true
			continue
		}
		files = append(files, f)
	}
	if !sawManifest {
		t.Errorf("no %s written alongside the cell reports", manifestFile)
	}
	if len(files) != wantCells {
		t.Fatalf("got %d cell reports, want %d", len(files), wantCells)
	}
	var man Manifest
	mdata, err := os.ReadFile(filepath.Join(cfg.ReportDir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mdata, &man); err != nil {
		t.Fatal(err)
	}
	if man.Reps != cfg.Reps || man.Seed != cfg.Seed || len(man.Cells) != wantCells {
		t.Errorf("manifest reps=%d seed=%d cells=%d, want %d/%d/%d",
			man.Reps, man.Seed, len(man.Cells), cfg.Reps, cfg.Seed, wantCells)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var rep CellReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s: %v", files[0], err)
	}
	if rep.Label == "" || rep.Fingerprint == "" || rep.Scheme == "" {
		t.Errorf("report identity incomplete: %+v", rep)
	}
	if rep.Reps != cfg.Reps || len(rep.Results) != cfg.Reps {
		t.Errorf("report has %d reps / %d results, want %d", rep.Reps, len(rep.Results), cfg.Reps)
	}
	if rep.Counters["mac/tx-data"] == 0 || rep.Counters["routing/data-delivered"] == 0 {
		t.Errorf("summed counters implausible: %v", rep.Counters)
	}
}

// TestReportsDoNotPerturbFigures pins the reporting path to the
// determinism contract: a sweep with collection on must produce the same
// figure as one without.
func TestReportsDoNotPerturbFigures(t *testing.T) {
	plain := tinyConfig()
	observed := tinyConfig()
	observed.Progress = metrics.NewProgress()
	observed.ReportDir = t.TempDir()

	fp, err := runFig(plain, "F-R5")
	if err != nil {
		t.Fatal(err)
	}
	fo, err := runFig(observed, "F-R5")
	if err != nil {
		t.Fatal(err)
	}
	if fp.CSV() != fo.CSV() {
		t.Error("per-cell reporting changed figure output")
	}
}

// TestJourneySweepReports covers the journey-tracing sweep path: cells
// gain a journey section, figures stay bit-identical to an untraced
// sweep, a resumed sweep reproduces the same figure from the checkpoints,
// and the manifest pins the sampling divisor.
func TestJourneySweepReports(t *testing.T) {
	plain := tinyConfig()
	fp, err := runFig(plain, "F-R5")
	if err != nil {
		t.Fatal(err)
	}

	cfg := tinyConfig()
	cfg.ReportDir = t.TempDir()
	cfg.JourneyEveryN = 1
	fj, err := runFig(cfg, "F-R5")
	if err != nil {
		t.Fatal(err)
	}
	if fp.CSV() != fj.CSV() {
		t.Error("journey tracing changed figure output")
	}

	files, err := filepath.Glob(filepath.Join(cfg.ReportDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range files {
		if filepath.Base(f) == manifestFile {
			var man Manifest
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &man); err != nil {
				t.Fatal(err)
			}
			if man.JourneyEveryN != 1 {
				t.Errorf("manifest journey_every_n = %d, want 1", man.JourneyEveryN)
			}
			continue
		}
		var rep CellReport
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if rep.Journey == nil {
			t.Fatalf("%s has no journey section", f)
		}
		if rep.Journey.EveryN != 1 || rep.Journey.Sampled == 0 {
			t.Fatalf("%s journey section implausible: %+v", f, rep.Journey)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no cell reports written")
	}

	// Resume from the checkpoints: bit-identical figure, nothing re-run.
	resume := cfg
	resume.Resume = true
	fr, err := runFig(resume, "F-R5")
	if err != nil {
		t.Fatal(err)
	}
	if fj.CSV() != fr.CSV() {
		t.Error("resumed journey sweep diverged from the original")
	}

	// A resume with a different divisor must fail loudly, not mix cells.
	mismatch := cfg
	mismatch.Resume = true
	mismatch.JourneyEveryN = 2
	if _, err := runFig(mismatch, "F-R5"); err == nil {
		t.Error("resume with mismatched journey divisor did not fail")
	}
}

// TestAtomicWriteJSONLeavesNoTempFile: when the rename cannot land (a
// directory sits at the target path) the error surfaces and the temp
// file is gone.
func TestAtomicWriteJSONLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.json")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteJSON(path, CellReport{Label: "x"}); err == nil {
		t.Fatal("atomicWriteJSON onto a directory succeeded")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Fatalf("failed write left %v behind", left)
	}
}

func TestCellFileName(t *testing.T) {
	got := cellFileName("F-R3/4/7 rate=8 clnlr-2hop")
	if got != "F-R3_4_7_rate_8_clnlr-2hop.json" {
		t.Errorf("cellFileName = %q", got)
	}
}
