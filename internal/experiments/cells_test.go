package experiments

import (
	"testing"

	"clnlr/internal/sim"
)

// discoveryCellScenario is a small unloaded grid for discovery cells.
func discoveryCellScenario() sim.Scenario {
	sc := baseScenario(tinyConfig())
	sc.Rows, sc.Cols = 4, 4
	sc.AreaM = gridSpacingM * 4
	sc.Flows = 0
	sc.Seed = 5
	return sc
}

// TestRunCellsDiscoveryMatchesRunDiscovery: a CellSpec with Rounds > 0 is
// replication r = sim.RunDiscovery at seed Seed+r with the planner's probe
// gap, whatever the worker count.
func TestRunCellsDiscoveryMatchesRunDiscovery(t *testing.T) {
	sc := discoveryCellScenario()
	const rounds, reps = 4, 3
	for _, workers := range []int{1, 3} {
		cells, err := RunCells(Config{Reps: reps, Workers: workers}, []CellSpec{{Label: "disc", Scenario: sc, Rounds: rounds}})
		if err != nil {
			t.Fatal(err)
		}
		got := cells[0].Discovery
		if len(got) != reps || cells[0].Results != nil {
			t.Fatalf("workers=%d: %d discovery and %d data-plane results, want %d and 0",
				workers, len(got), len(cells[0].Results), reps)
		}
		for r := range got {
			s := sc
			s.Seed = sc.Seed + uint64(r)
			want, err := sim.RunDiscovery(s, rounds, discoveryGap)
			if err != nil {
				t.Fatal(err)
			}
			if got[r] != want {
				t.Errorf("workers=%d rep %d:\n  cell %+v\n  sim  %+v", workers, r, got[r], want)
			}
		}
	}
}

// TestResumeReRunsDiscoveryCellWithNewRounds: the scenario fingerprint
// does not cover the probe count, so a checkpoint written with other
// Rounds must not be loaded into the cell.
func TestResumeReRunsDiscoveryCellWithNewRounds(t *testing.T) {
	dir := t.TempDir()
	sc := discoveryCellScenario()
	for _, rounds := range []int{2, 3} {
		cfg := Config{Reps: 2, Workers: 1, Seed: sc.Seed, ReportDir: dir, Resume: true}
		cells, err := RunCells(cfg, []CellSpec{{Label: "disc", Scenario: sc, Rounds: rounds}})
		if err != nil {
			t.Fatal(err)
		}
		for r, d := range cells[0].Discovery {
			if d.Rounds != rounds {
				t.Fatalf("rounds=%d: rep %d ran %d rounds (stale checkpoint loaded)", rounds, r, d.Rounds)
			}
		}
	}
}
