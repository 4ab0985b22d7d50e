package sim

import (
	"fmt"
	"testing"

	"clnlr/internal/des"
)

// TestGoldenWarmMatchesCold is the determinism contract of warm
// replication reuse: an Engine that has already run arbitrary prior
// scenarios must produce bit-identical Results to a cold run. One shared
// engine sweeps every golden config × scheme (map order shuffles the
// sequence, so the reuse path is exercised against heterogeneous
// predecessors: scheme changes, propagation changes, node-count changes
// that force a rebuild, mobility on and off), and every run is compared
// against a fresh-engine run of the same scenario.
func TestGoldenWarmMatchesCold(t *testing.T) {
	eng := NewEngine()
	for name, mut := range goldenConfigs() {
		for _, scheme := range AllSchemes() {
			t.Run(fmt.Sprintf("%s/%s", name, scheme), func(t *testing.T) {
				sc := quickScenario().WithScheme(scheme)
				sc.Warmup = 2 * des.Second
				sc.Measure = 8 * des.Second
				mut(&sc)

				cold, err := NewEngine().Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				warm1, err := eng.Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				// Second pass on the same engine: now the placement cache,
				// sim kernel, medium and node state are all certainly warm
				// for this exact scenario.
				warm2, err := eng.Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if warm1 != cold {
					t.Errorf("warm run diverges from cold:\n  warm %+v\n  cold %+v", warm1, cold)
				}
				if warm2 != cold {
					t.Errorf("warm rerun diverges from cold:\n  warm %+v\n  cold %+v", warm2, cold)
				}
			})
		}
	}
}

// TestWarmReplicationSeedSchedule pins the seed schedule of warm reuse:
// running seeds s, s+1, … through one engine (the experiments planner's
// worker pattern) must match fresh cold runs of each seed.
func TestWarmReplicationSeedSchedule(t *testing.T) {
	sc := quickScenario()
	sc.Measure = 5 * des.Second
	eng := NewEngine()
	for i := 0; i < 4; i++ {
		s := sc
		s.Seed = sc.Seed + uint64(i)
		cold, err := NewEngine().Run(s)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := eng.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if warm != cold {
			t.Errorf("seed %d: warm %+v != cold %+v", s.Seed, warm, cold)
		}
	}
}

// TestGoldenWarmDiscoveryMatchesCold extends the warm==cold contract to
// the discovery probe workload, interleaved with data-plane runs on the
// same engine so the two workloads must not contaminate each other.
func TestGoldenWarmDiscoveryMatchesCold(t *testing.T) {
	sc := probeScenario(5)
	cold, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	eng := NewEngine()
	data := quickScenario()
	data.Measure = 5 * des.Second
	if _, err := eng.Run(data); err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Errorf("warm discovery diverges from cold:\n  warm %+v\n  cold %+v", warm, cold)
	}

	coldData, err := NewEngine().Run(data)
	if err != nil {
		t.Fatal(err)
	}
	warmData, err := eng.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	if warmData != coldData {
		t.Errorf("data run after discovery diverges from cold:\n  warm %+v\n  cold %+v", warmData, coldData)
	}
}

// TestPlacementCacheKeying: a warm engine never serves a stale
// placement. The engine keeps no placement between runs, only the
// storage every run places its nodes into afresh, so one engine that
// alternates placements — the grid, a perturbed grid at two seeds, a
// random placement, a smaller grid (a rebuild) and the first grid again
// — matches a cold run each time.
func TestPlacementCacheKeying(t *testing.T) {
	base := quickScenario()
	base.Warmup, base.Measure = 2*des.Second, 6*des.Second
	perturbed := base
	perturbed.Topology = TopoPerturbedGrid
	perturbed2 := perturbed
	perturbed2.Seed += 7
	random := base
	random.Topology, random.Nodes = TopoRandom, base.Rows*base.Cols
	small := base
	small.Rows, small.Cols, small.AreaM = 4, 4, 4*gridSpacing()
	seq := []Scenario{base, perturbed, perturbed2, random, small, base}
	eng := NewEngine()
	for i, sc := range seq {
		cold, err := NewEngine().Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := eng.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if warm != cold {
			t.Errorf("run %d (%s, seed %d): warm %+v != cold %+v", i, sc.Topology, sc.Seed, warm, cold)
		}
	}
}

// TestWarmSchemeSequenceMatchesCold: one engine runs clnlr, clnlr-2hop,
// counter at C=3 and at C=2, then clnlr again, each run matching a cold
// one. The network shares one policy per run, and HELLO bodies keep
// their load tables' storage whether a run's beacons are one-hop or
// two-hop, so this is the check that neither carries anything from one
// run into the next: a two-hop table left in a recycled beacon, a
// counter assessment or a policy parameter of the scheme before.
func TestWarmSchemeSequenceMatchesCold(t *testing.T) {
	base := quickScenario()
	base.SessionTime = 5 * des.Second
	c2 := base.WithScheme(SchemeCounter)
	c2.Counter.C = 2
	seq := []Scenario{
		base.WithScheme(SchemeCLNLR),
		base.WithScheme(SchemeCLNLR2),
		base.WithScheme(SchemeCounter),
		c2,
		base.WithScheme(SchemeCLNLR),
	}
	eng := NewEngine()
	for i, sc := range seq {
		sc.Seed = uint64(i + 1)
		cold, err := NewEngine().Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := eng.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if warm != cold {
			t.Errorf("run %d (%s): warm %+v != cold %+v", i, sc.Scheme, warm, cold)
		}
	}
}
