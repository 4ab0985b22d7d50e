package sim

import (
	"runtime"
	"testing"
	"time"

	"clnlr/internal/des"
	"clnlr/internal/routing"
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

// TestWarmRunAllocBudget: a warm run allocates nothing. Each case cycles
// through a list of scenarios on one engine, as the benchmark's rounds
// do: two passes warm the engine, and the mean allocations of the next
// pass are counted. The list is one scenario run again, or —
// paper49-alternating, the benchmark's paper49 traffic — all five
// schemes in turn, each with a seed of its own, or — mobile-new-seed,
// its mobile100 traffic — two seeds in turn, so every run places its
// nodes, starts its walkers and draws its churn schedule anew. Placement
// checks, mobility walkers, the churn schedule, the load clock, HELLO
// tables and each scheme's policy reuse engine-held storage; the event
// loop itself — route discovery, RERRs, counter assessments, two-hop
// HELLOs, reply windows — reuses per-node storage grown to the largest
// any run needed, and what a run leaves queued or buffered goes back to
// the pools at the next Reset. So once the first pass has grown what it
// needs, a run allocates nothing (see TestWarmEngineConverges).
func TestWarmRunAllocBudget(t *testing.T) {
	same := func(sc Scenario) []Scenario { return []Scenario{sc} }
	schemes := AllSchemes()
	var alternating []Scenario
	for k, s := range schemes {
		sc := paperShape().WithScheme(s)
		sc.Seed = uint64(k + 1)
		alternating = append(alternating, sc)
	}
	mobile := mobileChurnScenario(t)
	var newSeed []Scenario
	for seed := uint64(1); seed <= 2; seed++ {
		sc := mobile
		sc.Seed = seed
		newSeed = append(newSeed, sc)
	}
	cases := []struct {
		name string
		list []Scenario
	}{
		{"counter-7x7", same(DefaultScenario().WithScheme(SchemeCounter))},
		{"clnlr-2hop", same(DefaultScenario().WithScheme(SchemeCLNLR2))},
		{"mobile-churn-burst", same(mobile)},
		{"gateway-saturated", same(gatewaySaturatedScenario())},
		{"paper49-alternating", alternating},
		{"mobile-new-seed", newSeed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			n := len(tc.list)
			k := 0
			run := func() {
				if _, err := e.Run(tc.list[k%n]); err != nil {
					t.Fatal(err)
				}
				k++
			}
			// AllocsPerRun's own warm-up call is the last warming run.
			for i := 1; i < 2*n; i++ {
				run()
			}
			settleCollector()
			got := testing.AllocsPerRun(n, run)
			t.Logf("%s: %v allocs per warm run", tc.name, got)
			if got != 0 {
				t.Errorf("%s: a warm run allocates %v times, want 0", tc.name, got)
			}
		})
	}
}

// TestWarmEngineConverges: a warm engine's second pass over a set of
// scenarios allocates nothing of its own. One Observer — one engine and
// its instruments — takes each of five shapes in turn and cycles three
// times through its list of runs: three seeds of the mobile shape with
// churn and burst loss (RERRs and re-discovery after every break), of
// the saturated gateway point (full queues and discovery buffers at every
// reset) and of the default point observed with the collector, journeys
// on every flow and the auditor; every scheme of AllSchemes at the
// default point, each with a seed of its own (a policy kept per scheme);
// and the 15×15 grid with 20 flows, clnlr and flood alternating over
// four seeds (the largest network's slabs, tables and audible sets).
// Each run of the third cycle must allocate exactly what the same run did
// in the second, and at most maxLeft. What the first cycle grows — pools
// and their free lists, recycled RERR lists, discovery buffers and
// journey tracks, per-node tables, the journey hop arena, the
// instruments, the scheme's policy — the engine keeps, and nothing is
// left: a run on this path allocates nothing once its list has run.
func TestWarmEngineConverges(t *testing.T) {
	const maxLeft = 0
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	window := func(sc Scenario) Scenario {
		sc.Measure = 10 * des.Second
		return sc
	}
	seeds := func(sc Scenario) []Scenario {
		list := make([]Scenario, 3)
		for i := range list {
			list[i] = sc
			list[i].Seed = uint64(i + 1)
		}
		return list
	}
	alternate := func(sc Scenario, schemes []Scheme, n int) []Scenario {
		list := make([]Scenario, n)
		for k := range list {
			list[k] = sc.WithScheme(schemes[k%len(schemes)])
			list[k].Seed = uint64(k + 1)
		}
		return list
	}
	observed := window(DefaultScenario())
	observed.Audit = true
	grid := window(DefaultScenario())
	grid.Rows, grid.Cols, grid.AreaM, grid.Flows = 15, 15, 2142.857, 20
	instruments := ObserveOptions{Collect: true, Interval: DefaultSampleInterval, JourneyEvery: 1}
	var o Observer
	for _, shape := range []struct {
		name string
		runs []Scenario
		opts ObserveOptions
	}{
		{"mobile", seeds(window(mobileChurnScenario(t))), ObserveOptions{}},
		{"gateway", seeds(window(gatewaySaturatedScenario())), ObserveOptions{}},
		{"observed", seeds(observed), instruments},
		{"all-schemes", alternate(window(DefaultScenario()), AllSchemes(), len(AllSchemes())), ObserveOptions{}},
		{"grid225", alternate(grid, []Scheme{SchemeCLNLR, SchemeFlood}, 4), ObserveOptions{}},
	} {
		cycle := func() []uint64 {
			settleCollector()
			var m0, m1 runtime.MemStats
			mallocs := make([]uint64, len(shape.runs))
			for i, sc := range shape.runs {
				runtime.ReadMemStats(&m0)
				_, err := o.Run(sc, shape.opts)
				runtime.ReadMemStats(&m1)
				if err != nil {
					t.Fatalf("%s run %d (%s, seed %d): %v", shape.name, i, sc.Scheme, sc.Seed, err)
				}
				mallocs[i] = m1.Mallocs - m0.Mallocs
			}
			return mallocs
		}
		cycle()
		second, third := cycle(), cycle()
		for i, sc := range shape.runs {
			if third[i] != second[i] || third[i] > maxLeft {
				t.Errorf("%s run %d (%s, seed %d): %d allocations in the second cycle, %d in the third; want the same, at most %d",
					shape.name, i, sc.Scheme, sc.Seed, second[i], third[i], maxLeft)
			}
		}
	}
}

// settleCollector finishes the garbage collector's work before a count:
// a collection the previous runs started, and the cleanups that follow
// one (the runtime's own, which allocate) get the processor before the
// first counted run instead of during it.
func settleCollector() {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
}

// TestRebuildDropsKeptPolicies: a network rebuilt for another size keeps
// no policy of the network it drops. A counter run that ends with
// assessments pending, then a clnlr run on a larger grid, then counter
// again on that grid: after the rebuild every kept policy is either none
// or the one the new network runs, so the counter run that follows
// builds its policy on the new network instead of reusing one whose
// assessments carry the old network's cores and clones.
func TestRebuildDropsKeptPolicies(t *testing.T) {
	small := churnScenario()
	small.Scheme = SchemeCounter
	large := DefaultScenario()
	large.Measure = 5 * des.Second
	var e *Engine
	var old routing.RREQPolicy
	for seed := uint64(1); seed <= 20 && old == nil; seed++ {
		e = NewEngine()
		small.Seed = seed
		if _, err := e.Run(small); err != nil {
			t.Fatal(err)
		}
		p := e.nodes[0].Agent.Policy()
		for _, n := range e.nodes {
			if p.HeldPackets(n.Agent) > 0 {
				old = p
				break
			}
		}
	}
	if old == nil {
		t.Fatal("no counter run of seeds 1–20 ended with an assessment pending")
	}
	if _, err := e.Run(large); err != nil {
		t.Fatal(err)
	}
	cur := e.nodes[0].Agent.Policy()
	for _, st := range e.schemes {
		if st.policy != nil && st.policy != cur {
			t.Errorf("after the rebuild %s keeps policy %p, the network runs %p (the dropped network's counter ran %p)",
				st.key.scheme, st.policy, cur, old)
		}
	}
	large.Scheme = SchemeCounter
	r, err := e.Run(large)
	if err != nil {
		t.Fatal(err)
	}
	if p := e.nodes[0].Agent.Policy(); p == old || r.Sent == 0 {
		t.Errorf("counter on the rebuilt network runs %p, the dropped network's was %p; %d packets sent", p, old, r.Sent)
	}
}
