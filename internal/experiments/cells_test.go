package experiments

import (
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/node"
	"clnlr/internal/sim"
)

// discoveryCellScenario is a small unloaded grid probed rounds times.
func discoveryCellScenario(rounds int) sim.Scenario {
	sc := baseScenario(tinyConfig())
	sc.Rows, sc.Cols = 4, 4
	sc.AreaM = gridSpacingM * 4
	sc.Flows = 0
	sc.Probes = true
	sc.Measure = des.Time(rounds) * sim.ProbeGap
	sc.Seed = 5
	return sc
}

// TestRunCellsDiscoveryMatchesRunDiscovery: a probe cell's replication r
// is sim.Run at seed Seed+r, probe fields included, whatever the worker
// count.
func TestRunCellsDiscoveryMatchesRunDiscovery(t *testing.T) {
	const rounds, reps = 4, 3
	sc := discoveryCellScenario(rounds)
	for _, workers := range []int{1, 3} {
		cells, err := RunCells(Config{Reps: reps, Workers: workers}, []CellSpec{{Label: "disc", Scenario: sc}})
		if err != nil {
			t.Fatal(err)
		}
		got := cells[0].Results
		if len(got) != reps {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), reps)
		}
		for r := range got {
			s := sc
			s.Seed = sc.Seed + uint64(r)
			want, err := sim.NewEngine().Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if want.ProbesSent != rounds {
				t.Fatalf("rep %d sent %d probes, want %d", r, want.ProbesSent, rounds)
			}
			if got[r] != want {
				t.Errorf("workers=%d rep %d:\n  cell %+v\n  sim  %+v", workers, r, got[r], want)
			}
		}
	}
}

// TestResumeReRunsDiscoveryCellWithNewRounds: the probe count is the
// window over sim.ProbeGap, which the scenario fingerprint covers, so a
// checkpoint written with other rounds must not be loaded into the cell.
func TestResumeReRunsDiscoveryCellWithNewRounds(t *testing.T) {
	dir := t.TempDir()
	for _, rounds := range []int{2, 3} {
		sc := discoveryCellScenario(rounds)
		cfg := Config{Reps: 2, Workers: 1, Seed: sc.Seed, ReportDir: dir, Resume: true}
		cells, err := RunCells(cfg, []CellSpec{{Label: "disc", Scenario: sc}})
		if err != nil {
			t.Fatal(err)
		}
		for r, res := range cells[0].Results {
			if res.ProbesSent != uint64(rounds) {
				t.Fatalf("rounds=%d: rep %d sent %d probes (stale checkpoint loaded)", rounds, r, res.ProbesSent)
			}
		}
	}
}

// TestRunCellsKeepsScenarioAudit: a cell whose scenario sets Audit runs
// audited with Config.Audit off, and its report carries the submitted
// scenario's fingerprint.
func TestRunCellsKeepsScenarioAudit(t *testing.T) {
	sc := sim.DefaultScenario()
	sc.Warmup, sc.Measure = des.Second, 2*des.Second
	sc.Audit = true
	var audited []bool
	sim.TestHookPrepared = func(_ *des.Sim, _ []*node.Node, s sim.Scenario) { audited = append(audited, s.Audit) }
	defer func() { sim.TestHookPrepared = nil }()
	cells, err := RunCells(Config{Reps: 1, Workers: 1}, []CellSpec{{Label: "audit", Scenario: sc}})
	if err != nil {
		t.Fatal(err)
	}
	if len(audited) != 1 || !audited[0] {
		t.Fatalf("runs saw Audit = %v, want [true]", audited)
	}
	if got, want := cells[0].Fingerprint, sc.Fingerprint(); got != want {
		t.Fatalf("cell fingerprint %s, want the submitted scenario's %s", got, want)
	}
}
