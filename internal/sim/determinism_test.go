package sim

import (
	"fmt"
	"testing"

	"clnlr/internal/des"
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

				fast1, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				fast2, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				ref := sc
				ref.ReferenceRadio = true
				slow, err := Run(ref)
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
				for i, s := range []Scenario{sc, ref, sc} {
					r, err := eng.Run(s)
					if err != nil {
						t.Fatal(err)
					}
					if r != fast1 {
						t.Errorf("warm run %d (ref=%v) diverged:\n  got  %+v\n  want %+v",
							i, s.ReferenceRadio, r, fast1)
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
// discovery probe runner used by F-R1/F-R2.
func TestGoldenDiscoveryMatchesReference(t *testing.T) {
	sc := quickScenario()
	sc.Flows = 0
	fast, err := RunDiscovery(sc, 5, 4*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	ref := sc
	ref.ReferenceRadio = true
	slow, err := RunDiscovery(ref, 5, 4*des.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fast != slow {
		t.Errorf("discovery indexed path diverges from reference:\n  fast %+v\n  ref  %+v", fast, slow)
	}
}
