package sim

import (
	"fmt"
	"slices"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/journey"
	"clnlr/internal/node"
)

// goldenConfigs enumerates scenario shapes chosen to exercise the radio
// fast path against the retained reference implementation:
//
//   - two-ray static: audible sets built once and reused (paper
//     deployments are smaller than the models' trackable ranges, so every
//     set holds every radio — the tracking floor cutting sets down is
//     proven at the medium layer in internal/radio's
//     TestReferenceMatchesMemoOnWideDeployment)
//   - log-distance wide: a denser 11×11 deployment under a different
//     static model
//   - mobility variants: SetPos must invalidate the memoised sets mid-run
//   - nakagami: time-varying fading, nothing memoised
func goldenConfigs() map[string]func(*Scenario) {
	return map[string]func(*Scenario){
		"two-ray-static": func(sc *Scenario) {},
		// Log-distance exp-3 receive range is 80.7 m, so 70 m spacing
		// keeps the lattice connected.
		"log-distance-wide": func(sc *Scenario) {
			sc.PropModel = PropLogDistance
			sc.Rows, sc.Cols = 11, 11
			sc.AreaM = 11 * 70
		},
		"two-ray-mobile": func(sc *Scenario) {
			sc.MobilitySpeed = 10
		},
		"log-distance-mobile": func(sc *Scenario) {
			sc.PropModel = PropLogDistance
			sc.Rows, sc.Cols = 11, 11
			sc.AreaM = 11 * 70
			sc.MobilitySpeed = 10
		},
		"nakagami": func(sc *Scenario) {
			sc.PropModel = PropNakagami
		},
		// Fault injection must live under the same contract: crash/recover
		// schedules and Gilbert–Elliott loss draws are pure functions of the
		// seed, so fast==reference and warm==cold hold bit-for-bit.
		"node-churn": func(sc *Scenario) {
			sc.Faults.MeanUpTime = 4 * des.Second
			sc.Faults.MeanDownTime = 2 * des.Second
		},
		"link-impaired": func(sc *Scenario) {
			sc.Faults.Link.MeanGood = 2 * des.Second
			sc.Faults.Link.MeanBad = 500 * des.Millisecond
			sc.Faults.Link.LossBad = 0.8
			sc.Faults.Link.LossGood = 0.02
		},
		"churn-impaired-mobile": func(sc *Scenario) {
			sc.Faults.MeanUpTime = 4 * des.Second
			sc.Faults.MeanDownTime = 2 * des.Second
			sc.Faults.Link.MeanGood = 2 * des.Second
			sc.Faults.Link.MeanBad = 500 * des.Millisecond
			sc.Faults.Link.LossBad = 0.8
			sc.MobilitySpeed = 10
		},
	}
}

// TestGoldenIndexedMatchesReference is the determinism contract of the
// radio hot path: the memoised audible sets and the pooled
// transmission/event machinery must not change a single bit of any run's
// outcome. Every scheme runs each golden scenario twice on the memoised
// default path and once on the exhaustive reference path; all three
// Results must be identical structs. A warm engine then flips between the
// two tiers across resets, proving tier changes leave no residue in
// reused state.
func TestGoldenIndexedMatchesReference(t *testing.T) {
	for name, mut := range goldenConfigs() {
		for _, scheme := range AllSchemes() {
			t.Run(fmt.Sprintf("%s/%s", name, scheme), func(t *testing.T) {
				sc := quickScenario().WithScheme(scheme)
				sc.Warmup = 2 * des.Second
				sc.Measure = 8 * des.Second
				mut(&sc)

				fast1, err := NewEngine().Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				fast2, err := NewEngine().Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				slow, err := referenceEngine().Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if fast1 != fast2 {
					t.Errorf("fast path not reproducible:\n  run1 %+v\n  run2 %+v", fast1, fast2)
				}
				if fast1 != slow {
					t.Errorf("memoised path diverges from reference:\n  fast %+v\n  ref  %+v", fast1, slow)
				}

				// Warm engine flip-flop: memo → reference → memo on one
				// reused engine must keep reproducing the cold result.
				eng := NewEngine()
				for i, ref := range []bool{false, true, false} {
					eng.referenceRadio = ref
					r, err := eng.Run(sc)
					if err != nil {
						t.Fatal(err)
					}
					if r != fast1 {
						t.Errorf("warm run %d (ref=%v) diverged:\n  got  %+v\n  want %+v",
							i, ref, r, fast1)
					}
				}
			})
		}
	}
}

// TestGoldenCalendarMatchesReferenceQueue keeps the name (and the forty
// subtest identities) it had while the kernel carried two event lists; with
// one list left, what it pins over the same scenarios is the other half of
// that change: the network's single load-sampling clock must not move a bit
// of any Result relative to the per-MAC tickers it replaced (perMacSampling,
// loadclock_test.go), it must account for exactly the events it saves, and
// a warm engine alternating between the two arrangements must keep
// reproducing the cold run — the indexed heap, its node pool and the
// cancel-removes path carry no residue across resets.
func TestGoldenCalendarMatchesReferenceQueue(t *testing.T) {
	for name, mut := range goldenConfigs() {
		for _, scheme := range AllSchemes() {
			t.Run(fmt.Sprintf("%s/%s", name, scheme), func(t *testing.T) {
				sc := quickScenario().WithScheme(scheme)
				sc.Warmup = 2 * des.Second
				sc.Measure = 8 * des.Second
				mut(&sc)

				clock, clockEvents := runCounted(t, NewEngine(), sc, false)
				perMac, perMacEvents := runCounted(t, NewEngine(), sc, true)
				if clock != perMac {
					t.Errorf("one clock diverges from per-MAC tickers:\n  clock   %+v\n  per-MAC %+v", clock, perMac)
				}
				if got, want := perMacEvents-clockEvents, sc.NodeCount()*loadWindows(sc); got != uint64(want) {
					t.Errorf("per-MAC tickers cost %d events more than the clock, want N·windows = %d", got, want)
				}

				eng := NewEngine()
				for i, oracle := range []bool{false, true, false} {
					if r, _ := runCounted(t, eng, sc, oracle); r != clock {
						t.Errorf("warm run %d (perMac=%v) diverged:\n  got  %+v\n  want %+v", i, oracle, r, clock)
					}
				}
			})
		}
	}
}

// TestGoldenDiscoveryMatchesReference extends the contract to the
// discovery probe workload of F-R1/F-R2.
func TestGoldenDiscoveryMatchesReference(t *testing.T) {
	sc := probeScenario(5)
	memo, ref := NewEngine(), referenceEngine()
	fast, err := memo.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ref.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The engine switch reaches the medium: the reference tier never
	// builds a memoised audible set, the default builds one per sender.
	if m, r := memo.medium.AudibleRebuilds(), ref.medium.AudibleRebuilds(); m == 0 || r != 0 {
		t.Errorf("memoised audible-set builds: %d on the default engine, %d on the reference one; want > 0 and 0", m, r)
	}
	if fast != slow {
		t.Errorf("discovery indexed path diverges from reference:\n  fast %+v\n  ref  %+v", fast, slow)
	}
}

// crnWorld is what a run's scheme must not influence: where the nodes
// stand, which endpoints each flow slot draws in every session and each
// discovery probe draws, and when each node is down.
type crnWorld struct {
	positions []geom.Point
	// flows holds (flow, seq, src, dst, created) of every packet
	// originated in the measurement window, probes included, sorted.
	flows [][5]int64
	// downs holds (time, node, down) for every change of a node's
	// up/down state seen by a 1 ms probe.
	downs [][3]int64
}

// TestSchemesShareRandomWorld pins common random numbers across schemes:
// at one seed, all six schemes get the same random placement, the same
// flow endpoints (every session's redraw included), the same probe
// endpoints and the same crash/recover schedule, because each of those
// draws from its own labelled stream of the run seed, never from a stream
// the scheme's forwarding decisions consume.
func TestSchemesShareRandomWorld(t *testing.T) {
	sc := journeyScenario(SchemeFlood)
	withChurn(&sc)
	sc.Topology, sc.Nodes, sc.Seed = TopoRandom, 25, 7
	sc.Probes = true
	rounds := int(sc.Measure / ProbeGap)

	var w crnWorld
	TestHookPrepared = func(simk *des.Sim, nodes []*node.Node, _ Scenario) {
		down := make([]bool, len(nodes))
		for _, n := range nodes {
			w.positions = append(w.positions, n.Pos)
		}
		simk.AtTrain(0, des.Millisecond, 1<<30, des.Func(func() {
			for i, n := range nodes {
				if d := n.Radio.Down(); d != down[i] {
					down[i] = d
					change := [3]int64{int64(simk.Now()), int64(i), 0}
					if d {
						change[2] = 1
					}
					w.downs = append(w.downs, change)
				}
			}
		}), 0, 0)
	}
	defer func() { TestHookPrepared = nil }()

	schemes := append(AllSchemes(), SchemeGossipAdaptive)
	worlds := make([]crnWorld, len(schemes))
	for i, scheme := range schemes {
		w = crnWorld{}
		rec := journey.NewRecorder(1, false)
		if _, err := NewEngine().RunJourney(sc.WithScheme(scheme), nil, nil, rec); err != nil {
			t.Fatal(err)
		}
		for _, j := range rec.Journeys() {
			w.flows = append(w.flows, [5]int64{int64(j.Flow), int64(j.Seq), int64(j.Src), int64(j.Dst), j.CreatedNs})
		}
		slices.SortFunc(w.flows, func(a, b [5]int64) int { return slices.Compare(a[:], b[:]) })
		worlds[i] = w
	}

	base := worlds[0]
	endpoints := map[[3]int64]bool{}
	for _, f := range base.flows {
		endpoints[[3]int64{f[0], f[2], f[3]}] = true
	}
	if len(endpoints) <= sc.Flows || len(base.downs) < 2 {
		t.Fatalf("world too static to prove anything: %d (flow, src, dst) pairs for %d slots, %d down/up changes",
			len(endpoints), sc.Flows, len(base.downs))
	}
	// The probes carry the last flow IDs, one packet each, leaving every
	// ProbeGap from Warmup.
	for i, p := range base.flows[len(base.flows)-rounds:] {
		if p[1] != 0 || p[4] != int64(sc.Warmup+des.Time(i)*ProbeGap) {
			t.Fatalf("probe %d not in the world: last flows %v", i, base.flows[len(base.flows)-rounds:])
		}
	}
	t.Logf("%d packets over %d (flow, src, dst) pairs, %d down/up changes", len(base.flows), len(endpoints), len(base.downs))
	for i, w := range worlds[1:] {
		scheme := schemes[i+1]
		if !slices.Equal(w.positions, base.positions) {
			t.Errorf("%s placed its nodes elsewhere than %s", scheme, schemes[0])
		}
		if !slices.Equal(w.flows, base.flows) {
			t.Errorf("%s originated %d packets with other endpoints or times than %s's %d", scheme, len(w.flows), schemes[0], len(base.flows))
		}
		if !slices.Equal(w.downs, base.downs) {
			t.Errorf("%s saw another crash/recover schedule (%d changes) than %s (%d)", scheme, len(w.downs), schemes[0], len(base.downs))
		}
	}
}
