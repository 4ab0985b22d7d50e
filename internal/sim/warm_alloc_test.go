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

// paperShape is the benchmark's paper49 scenario: the paper grid with
// 10 s sessions, so route discovery keeps happening all run long.
func paperShape() Scenario {
	sc := DefaultScenario()
	sc.SessionTime = 10 * des.Second
	return sc
}

// TestWarmRunAllocBudget: a warm run allocates no more than a fixed
// budget. Each case cycles through a list of scenarios on one engine, as
// the benchmark's rounds do: two passes warm the engine, and the mean
// allocations of the next pass are counted. The list is one scenario
// run again, or — paper49-alternating, the benchmark's paper49 traffic —
// all five schemes in turn, each with a seed of its own, or —
// mobile-new-seed, its mobile100 traffic — two seeds in turn, so every
// run places its nodes, starts its walkers and draws its churn schedule
// anew. What a warm run allocates is only what grows (a pool or a
// per-node table meeting a new high-water mark), the counter scheme's
// per-network assessments, and what the auditor or sampler of a run
// sizes. Placement checks, mobility walkers, the churn schedule,
// the load clock, HELLO tables and the one policy per network reuse
// engine-held storage; the event loop itself — route discovery, RERRs,
// counter assessments, two-hop HELLOs, reply windows — reuses per-node
// storage, and what a run leaves queued or buffered goes back to the
// pools at the next Reset. Each budget is about 1.25× the count it
// guards, far under what a per-node policy, a throwaway placement medium
// or a per-run walker cost, so a regression there fails here without
// the benchmark.
func TestWarmRunAllocBudget(t *testing.T) {
	same := func(sc Scenario) func(int) Scenario {
		return func(int) Scenario { return sc }
	}
	schemes := AllSchemes()
	alternating := func(k int) Scenario {
		sc := paperShape().WithScheme(schemes[k%len(schemes)])
		sc.Seed = uint64(k%len(schemes) + 1)
		return sc
	}
	mobile := mobileChurnScenario(t)
	newSeed := func(k int) Scenario {
		sc := mobile
		sc.Seed = uint64(k%2 + 1)
		return sc
	}
	cases := []struct {
		name string
		next func(k int) Scenario
		// n is the list's length: 2n runs warm the engine, n are counted.
		n      int
		budget float64
	}{
		{"counter-7x7", same(DefaultScenario().WithScheme(SchemeCounter)), 1, 23},
		{"clnlr-2hop", same(DefaultScenario().WithScheme(SchemeCLNLR2)), 1, 29},
		{"mobile-churn-burst", same(mobile), 1, 14},
		{"gateway-saturated", same(gatewaySaturatedScenario()), 1, 7},
		{"paper49-alternating", alternating, len(schemes), 13},
		{"mobile-new-seed", newSeed, 2, 13},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			k := 0
			run := func() {
				if _, err := e.Run(tc.next(k)); err != nil {
					t.Fatal(err)
				}
				k++
			}
			// AllocsPerRun's own warm-up call is the last warming run.
			for i := 1; i < 2*tc.n; i++ {
				run()
			}
			got := testing.AllocsPerRun(tc.n, run)
			t.Logf("%s: %v allocs per warm run (budget %v)", tc.name, got, tc.budget)
			if got > tc.budget {
				t.Errorf("%s: a warm run allocates %v times, over its budget of %v", tc.name, got, tc.budget)
			}
		})
	}
}
