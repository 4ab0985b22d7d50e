package gossip_test

import (
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/mac"
	"clnlr/internal/node"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
	"clnlr/internal/routing"
	"clnlr/internal/routing/gossip"
)

// nilPool builds test packets: a nil pool allocates and keeps nothing.
var nilPool *pkt.Pool

func buildChain(n int, params gossip.Params, seed uint64) (*des.Sim, []*node.Node, routing.RREQPolicy) {
	simk := des.NewSim()
	medium := radio.NewMedium(simk, radio.NewTwoRay(914e6, 1.5, 1.5))
	spec := gossip.Spec(routing.DefaultConfig(), params)
	var pol routing.RREQPolicy
	newPolicy := spec.Policy
	spec.Policy = func() routing.RREQPolicy { pol = newPolicy(); return pol }
	nodes := node.BuildNetwork(simk, medium,
		geom.ChainPlacement(geom.Point{}, n, 200),
		radio.DefaultParams(), mac.DefaultConfig(), rng.New(seed), spec)
	node.StartAll(nodes)
	return simk, nodes, pol
}

func TestDefaultParams(t *testing.T) {
	p := gossip.DefaultParams()
	if p.P != 0.7 || p.K != 1 {
		t.Fatalf("default params %+v", p)
	}
}

func TestProbabilityOneBehavesLikeFlood(t *testing.T) {
	simk, nodes, _ := buildChain(4, gossip.Params{P: 1, K: 0}, 3)
	simk.ScheduleCall(des.Second, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 3, 128, 0, 0, simk.Now(), 30))
	}), 0, 0)
	simk.RunUntil(10 * des.Second)
	if nodes[3].Agent.Ctr.DataDelivered != 1 {
		t.Fatal("P=1 gossip failed to deliver")
	}
	if nodes[1].Agent.Ctr.RREQSuppressed != 0 {
		t.Fatal("P=1 gossip suppressed a RREQ")
	}
}

func TestProbabilityZeroSuppressesBeyondK(t *testing.T) {
	// P=0, K=1: the origin's 1-hop neighbours forward (hop 0 < K), but
	// 2nd-ring nodes suppress everything, so a 3-hop discovery fails.
	simk, nodes, _ := buildChain(4, gossip.Params{P: 0, K: 1}, 3)
	simk.ScheduleCall(des.Second, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 3, 128, 0, 0, simk.Now(), 30))
	}), 0, 0)
	simk.RunUntil(15 * des.Second)
	if nodes[3].Agent.Ctr.DataDelivered != 0 {
		t.Fatal("P=0 gossip should not reach 3 hops")
	}
	if nodes[1].Agent.Ctr.RREQForwarded == 0 {
		t.Fatal("first-ring node should forward unconditionally (K=1)")
	}
	if nodes[2].Agent.Ctr.RREQSuppressed == 0 {
		t.Fatal("second-ring node should suppress with P=0")
	}
	if nodes[0].Agent.Ctr.DiscoveriesFailed != 1 {
		t.Fatalf("source should record a failed discovery, got %d",
			nodes[0].Agent.Ctr.DiscoveriesFailed)
	}
}

func TestIntermediateProbability(t *testing.T) {
	// With P=0.5 over many independent discoveries, the middle node of a
	// 3-chain forwards roughly half of the floods it first-hears.
	// (Chain 0-1-2 and target 2: node 1 is 1 hop from origin; use K=0 so
	// probability applies at hop 0.)
	forwarded, suppressed := 0, 0
	for seed := uint64(0); seed < 30; seed++ {
		simk, nodes, _ := buildChain(3, gossip.Params{P: 0.5, K: 0}, seed)
		simk.ScheduleCall(des.Second, des.Func(func() {
			nodes[0].Agent.Send(nilPool.Data(0, 2, 64, 0, 0, simk.Now(), 30))
		}), 0, 0)
		simk.RunUntil(6 * des.Second)
		forwarded += int(nodes[1].Agent.Ctr.RREQForwarded)
		suppressed += int(nodes[1].Agent.Ctr.RREQSuppressed)
	}
	if forwarded == 0 || suppressed == 0 {
		t.Fatalf("P=0.5 never exercised both branches: fwd=%d sup=%d", forwarded, suppressed)
	}
}

func TestCostIncrement(t *testing.T) {
	_, nodes, p := buildChain(2, gossip.DefaultParams(), 1)
	if p.CostIncrement(nodes[0].Agent) != 1 {
		t.Fatal("gossip cost increment must be 1")
	}
	if _, ok := p.(*gossip.Policy); !ok {
		t.Fatalf("policy %T", p)
	}
}
