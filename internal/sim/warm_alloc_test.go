package sim

import (
	"testing"

	"clnlr/internal/des"
)

// mobileChurnScenario is scripts/identity_mobile.json (100 nodes on a
// perturbed grid, 5 m/s waypoints) with the churn and burst loss of its
// second identity line and of the benchmark's mobile100 workload: every
// link break there turns into RERRs and re-discovery.
func mobileChurnScenario(t *testing.T) Scenario {
	t.Helper()
	sc, err := LoadScenario("../../scripts/identity_mobile.json")
	if err != nil {
		t.Fatal(err)
	}
	sc.Faults.MeanUpTime = 60 * des.Second
	sc.Faults.MeanDownTime = 5 * des.Second
	sc.Faults.Link.MeanGood = 2 * des.Second
	sc.Faults.Link.MeanBad = 200 * des.Millisecond
	sc.Faults.Link.LossBad = 0.8
	return sc
}

// gatewaySaturatedScenario is the benchmark's hotspot49 shape: the paper
// grid with 10 s sessions and 20 flows of 8 pkt/s all sinking at the
// gateway, so every run ends with full MAC queues and discovery buffers.
func gatewaySaturatedScenario() Scenario {
	sc := DefaultScenario()
	sc.SessionTime = 10 * des.Second
	sc.Measure = 40 * des.Second
	sc.Gateway, sc.Flows, sc.PacketRate = true, 20, 8
	return sc
}

// TestWarmRunAllocBudget: a whole run on an engine warmed by two runs of
// the same scenario allocates no more than a fixed budget. What remains
// is per-run setup (flow picks, the placement of a seed-dependent
// topology, fault schedules, mobility walkers, the slices each run's
// auditor or sampler sizes); the event loop itself — route discovery,
// RERRs, counter assessments, two-hop HELLOs, reply windows — reuses
// per-node storage, and what a run leaves queued or buffered goes back
// to the pools at the next Reset (gateway-saturated: a run that ends
// with full queues re-allocates none of them). Each budget is about
// 1.25× the count it guards, well under what the routing layer allocated
// when its control plane built fresh slices, records and closures per
// event, so a regression there fails here without the benchmark.
func TestWarmRunAllocBudget(t *testing.T) {
	counter := DefaultScenario().WithScheme(SchemeCounter)
	twoHop := DefaultScenario().WithScheme(SchemeCLNLR2)
	cases := []struct {
		name   string
		sc     Scenario
		budget float64
	}{
		{"counter-7x7", counter, 350},
		{"clnlr-2hop", twoHop, 95},
		{"mobile-churn-burst", mobileChurnScenario(t), 310},
		{"gateway-saturated", gatewaySaturatedScenario(), 75},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			run := func() {
				if _, err := e.Run(tc.sc); err != nil {
					t.Fatal(err)
				}
			}
			// AllocsPerRun's own warm-up call is the second warming run.
			run()
			got := testing.AllocsPerRun(1, run)
			t.Logf("%s: %v allocs per warm run (budget %v)", tc.name, got, tc.budget)
			if got > tc.budget {
				t.Errorf("%s: a warm run allocates %v times, over its budget of %v", tc.name, got, tc.budget)
			}
		})
	}
}
