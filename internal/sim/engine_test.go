package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/fault"
	"clnlr/internal/mac"
	"clnlr/internal/metrics"
	"clnlr/internal/node"
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

// TestWarmResetAfterCrashMatchesCold pins the joint where one run's crash
// meets the next run's reset. A loaded relay crashes in the last 10 ms of
// the window while it airs a data frame that outlasts the run (an explicit
// Faults.Schedule entry), so the run ends with that frame orphaned on the
// air and packets held for discovery. The reset that follows must pool
// every held packet exactly once — counted with the ledger off, which
// would refuse a second release rather than pool it — and the next seed's
// warm run on the same engine must equal a cold run, Result and collector
// counters, with the auditor of each run, the crashed one included,
// seeing no packet leak or double free.
func TestWarmResetAfterCrashMatchesCold(t *testing.T) {
	sc := quickScenario()
	// A saturated gateway: sources keep rediscovering their routes.
	sc.Gateway, sc.Flows, sc.PacketRate = true, 10, 20
	sc.Warmup, sc.Measure = 2*des.Second, 6*des.Second
	end := sc.Warmup + sc.Measure
	relay, at := crashMidFrame(t, sc)
	sc.Faults.Schedule = []fault.NodeEvent{{Node: relay, At: at}}
	audited := sc
	audited.Audit = true
	if _, err := NewEngine().Run(audited); hasPacketViolation(err) {
		t.Fatalf("crashed run: %v", err)
	}

	eng := NewEngine()
	if _, err := eng.Run(sc); err != nil {
		t.Fatal(err)
	}
	n := eng.nodes[relay]
	if !n.Radio.Down() || n.Mac.HeldPackets() != 1 || n.Mac.QueueLen() != 0 {
		t.Fatalf("relay %d crashed at %v: down %v, MAC holds %d with %d queued, want only the orphan on the air",
			relay, at, n.Radio.Down(), n.Mac.HeldPackets(), n.Mac.QueueLen())
	}
	pooled, held, buffered := 0, 0, 0
	for _, n := range eng.nodes {
		pooled += n.Agent.Env.Pool.Len()
		held += n.Mac.HeldPackets() + n.Agent.HeldPackets()
		buffered += n.Agent.HeldPackets()
	}
	if buffered == 0 {
		t.Fatalf("the run ended at %v with no packet held by a routing core", end)
	}

	next := audited
	next.Seed++
	defer func() { TestHookPrepared = nil }()
	TestHookPrepared = func(_ *des.Sim, nodes []*node.Node, _ Scenario) {
		TestHookPrepared = nil
		after := 0
		for _, n := range nodes {
			after += n.Agent.Env.Pool.Len()
		}
		if after-pooled != held {
			t.Errorf("the reset pooled %d packets, want the %d the crashed run held", after-pooled, held)
		}
	}
	warmCol := metrics.NewCollector(100 * des.Millisecond)
	warm, err := eng.RunJourney(next, nil, warmCol, nil)
	if hasPacketViolation(err) {
		t.Errorf("warm run after the crash: %v", err)
	}
	if TestHookPrepared != nil {
		t.Fatal("the warm run did not reset the crashed network")
	}
	coldCol := metrics.NewCollector(100 * des.Millisecond)
	cold, err := NewEngine().RunJourney(next, nil, coldCol, nil)
	if hasPacketViolation(err) {
		t.Errorf("cold run: %v", err)
	}
	if warm != cold {
		t.Errorf("warm run after a crash diverges from cold:\n  warm %+v\n  cold %+v", warm, cold)
	}
	if w, c := warmCol.Counters().Map(), coldCol.Counters().Map(); !reflect.DeepEqual(w, c) {
		t.Errorf("warm counters after a crash diverge from cold:\n  warm %v\n  cold %v", w, c)
	}
}

// crashMidFrame runs sc and picks the crash for
// TestWarmResetAfterCrashMatchesCold: among the nodes airing a data frame
// at the end of the window while another node's routing core holds
// packets, the one with the longest queue when that frame went on the air,
// and an instant in the frame's airtime no more than 10 ms before the
// end. Probe events only read the stack, so the run with the crash
// scheduled is this one up to the crash.
func crashMidFrame(t *testing.T, sc Scenario) (int, des.Time) {
	t.Helper()
	const step = 10 * des.Microsecond // below DIFS, the least gap between two frames
	end := sc.Warmup + sc.Measure
	from := end - 10*des.Millisecond
	ticks := int((end-from)/step) + 1
	var nodes []*node.Node
	// At tick k, airing[k][i] says whether node i airs a data frame and
	// queue[k][i] is its queue; held[i] is what its core holds at the end.
	airing := make([][]bool, ticks)
	queue := make([][]int, ticks)
	var held []int
	defer func() { TestHookPrepared = nil }()
	TestHookPrepared = func(simk *des.Sim, ns []*node.Node, _ Scenario) {
		nodes = ns
		for k := range ticks {
			simk.AtCall(from+des.Time(k)*step, des.Func(func() {
				airing[k], queue[k], held = make([]bool, len(ns)), make([]int, len(ns)), make([]int, len(ns))
				for i, n := range ns {
					f, ok := n.Radio.Airing().(*mac.Frame)
					airing[k][i] = ok && f.Type == mac.DataFrame
					queue[k][i] = n.Mac.QueueLen()
					held[i] = n.Agent.HeldPackets()
				}
			}), 0, 0)
		}
	}
	if _, err := NewEngine().Run(sc); hasPacketViolation(err) {
		t.Fatal(err)
	}
	total := 0
	for _, h := range held {
		total += h
	}
	best, bestAt, bestQueue := -1, des.Time(0), 0
	for i := range nodes {
		k := ticks - 1
		if !airing[k][i] || held[i] == total {
			continue
		}
		for k > 0 && airing[k-1][i] {
			k--
		}
		// Crash one tick into the airtime, when the frame is surely on the air.
		if k+1 < ticks && queue[k+1][i] > bestQueue {
			best, bestAt, bestQueue = i, from+des.Time(k+1)*step, queue[k+1][i]
		}
	}
	if best < 0 {
		t.Fatal("no node airs a data frame over the end of the window while another holds packets")
	}
	return best, bestAt
}

// hasPacketViolation reports whether an audited run's error names a
// packet leak or double free (other invariants are not this test's).
func hasPacketViolation(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "pkt/conservation") || strings.Contains(err.Error(), "pkt/double-free"))
}
