package sim_test

import (
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/experiments"
	"clnlr/internal/fault"
	"clnlr/internal/sim"
)

// replicate runs reps replications of sc as one experiments.RunCells cell
// over workers workers, the one replication driver the repository has.
func replicate(t *testing.T, sc sim.Scenario, reps, workers int) experiments.CellReport {
	t.Helper()
	cfg := experiments.Config{Reps: reps, Workers: workers}
	cells, err := experiments.RunCells(cfg, []experiments.CellSpec{{Label: t.Name(), Scenario: sc}})
	if err != nil {
		t.Fatal(err)
	}
	return cells[0]
}

// requireSameResults fails unless two replication sets are identical,
// replication by replication.
func requireSameResults(t *testing.T, what string, a, b []sim.Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d replications", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: replication %d differs:\n  %+v\n  %+v", what, i, a[i], b[i])
		}
	}
}

func TestRunReplications(t *testing.T) {
	sc := sim.QuickScenario()
	rs := replicate(t, sc, 3, 2).Results
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	for i, r := range rs {
		if r.Seed != sc.Seed+uint64(i) {
			t.Fatalf("result %d has seed %d", i, r.Seed)
		}
	}
	// Replication means must summarise.
	s := sim.Summarize(rs, sim.MetricPDR)
	if s.N != 3 || s.Mean <= 0 || s.Mean > 1 {
		t.Fatalf("summary %+v", s)
	}
	if _, err := experiments.RunCells(experiments.Config{Reps: 0}, []experiments.CellSpec{{Label: "zero", Scenario: sc}}); err == nil {
		t.Fatal("zero replications accepted")
	}
}

func TestRunReplicationsParallelMatchesSerial(t *testing.T) {
	sc := sim.QuickScenario().WithScheme(sim.SchemeGossip)
	requireSameResults(t, "serial vs parallel", replicate(t, sc, 3, 1).Results, replicate(t, sc, 3, 3).Results)
}

// TestFaultReplicationsParallelMatchesSerial extends the serial ==
// parallel contract to node churn with Gilbert–Elliott burst loss on top.
func TestFaultReplicationsParallelMatchesSerial(t *testing.T) {
	sc := sim.ChurnScenario()
	sc.Measure = 8 * des.Second
	sc.Faults.Link = fault.LinkParams{MeanGood: 2 * des.Second, MeanBad: 200 * des.Millisecond, LossBad: 0.8}
	requireSameResults(t, "fault serial vs parallel", replicate(t, sc, 3, 1).Results, replicate(t, sc, 3, 3).Results)
}

// TestReplicationRace runs a replication fan-out with more workers than
// cores so the race detector can observe the planner's sharing pattern.
func TestReplicationRace(t *testing.T) {
	sc := sim.QuickScenario()
	sc.Measure = 5 * des.Second
	rs := replicate(t, sc, 6, 6).Results
	if len(rs) != 6 {
		t.Fatalf("got %d results, want 6", len(rs))
	}
	for i, r := range rs {
		if r.Seed != sc.Seed+uint64(i) {
			t.Fatalf("result %d has seed %d, want %d (seed order broken)", i, r.Seed, sc.Seed+uint64(i))
		}
	}
}

func TestRunDiscoveryReplications(t *testing.T) {
	sc := sim.QuickScenario()
	sc.Flows = 0
	sc.Probes = true
	sc.Measure = 4 * sim.ProbeGap
	rs := replicate(t, sc, 2, 2).Results
	if len(rs) != 2 || rs[0].ProbesSent != 4 {
		t.Fatalf("got %d replications (first sent %d probes), want 2 of 4 probes", len(rs), rs[0].ProbesSent)
	}
	s := sim.Summarize(rs, sim.MetricProbeSuccess)
	if s.Mean < 0.9 {
		t.Fatalf("summary success %.2f", s.Mean)
	}
}
