package counter_test

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
	"clnlr/internal/routing/counter"
)

// nilPool builds test packets: a nil pool allocates and keeps nothing.
var nilPool *pkt.Pool

func build(positions []geom.Point, params counter.Params, seed uint64) (*des.Sim, []*node.Node) {
	simk := des.NewSim()
	medium := radio.NewMedium(simk, radio.NewTwoRay(914e6, 1.5, 1.5))
	nodes := node.BuildNetwork(simk, medium, positions,
		radio.DefaultParams(), mac.DefaultConfig(), rng.New(seed),
		counter.Spec(routing.DefaultConfig(), params))
	node.StartAll(nodes)
	return simk, nodes
}

func TestDefaultParams(t *testing.T) {
	p := counter.DefaultParams()
	if p.C != 3 || p.RADMax != 10*des.Millisecond {
		t.Fatalf("default params %+v", p)
	}
}

func TestThresholdOneSuppressesEverything(t *testing.T) {
	// C=1: after hearing just the copy that triggered the assessment, the
	// count (1) is not below C, so nobody ever rebroadcasts and a 2-hop
	// discovery fails.
	simk, nodes := build(geom.ChainPlacement(geom.Point{}, 3, 200),
		counter.Params{C: 1, RADMax: 10 * des.Millisecond}, 3)
	simk.ScheduleCall(des.Second, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 2, 64, 0, 0, simk.Now(), 30))
	}), 0, 0)
	simk.RunUntil(15 * des.Second)
	if nodes[2].Agent.Ctr.DataDelivered != 0 {
		t.Fatal("C=1 should strangle every flood")
	}
	if nodes[1].Agent.Ctr.RREQSuppressed == 0 {
		t.Fatal("middle node recorded no suppression")
	}
	if nodes[1].Agent.Ctr.RREQForwarded != 0 {
		t.Fatal("middle node forwarded despite C=1")
	}
}

func TestDefaultThresholdDeliversOnChain(t *testing.T) {
	// On a chain each node hears at most 2 copies (upstream + downstream),
	// below the default C=3, so the flood propagates.
	simk, nodes := build(geom.ChainPlacement(geom.Point{}, 4, 200),
		counter.DefaultParams(), 5)
	simk.ScheduleCall(des.Second, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 3, 64, 0, 0, simk.Now(), 30))
	}), 0, 0)
	simk.RunUntil(10 * des.Second)
	if nodes[3].Agent.Ctr.DataDelivered != 1 {
		t.Fatal("default counter scheme failed on a chain")
	}
}

func TestDenseClusterSuppresses(t *testing.T) {
	// A dense cluster around the origin: every cluster member hears many
	// copies during its RAD, so with C=2 most of them suppress. The
	// cluster has 6 mutually-in-range relays; at least one must suppress
	// and fewer than all 6 forward.
	positions := []geom.Point{{X: 0}} // origin
	for i := 0; i < 6; i++ {
		positions = append(positions, geom.Point{X: 100 + float64(i)*10, Y: float64(i) * 10})
	}
	positions = append(positions, geom.Point{X: 330}) // target, reachable via cluster
	simk, nodes := build(positions, counter.Params{C: 2, RADMax: 10 * des.Millisecond}, 7)
	simk.ScheduleCall(des.Second, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, pkt.NodeID(len(nodes)-1), 64, 0, 0, simk.Now(), 30))
	}), 0, 0)
	simk.RunUntil(10 * des.Second)

	var fwd, sup uint64
	for _, n := range nodes[1 : len(nodes)-1] {
		fwd += n.Agent.Ctr.RREQForwarded
		sup += n.Agent.Ctr.RREQSuppressed
	}
	if sup == 0 {
		t.Fatal("dense cluster recorded no counter suppression")
	}
	if fwd >= 6 {
		t.Fatalf("all %d cluster relays forwarded; counter had no effect", fwd)
	}
}

func TestPolicyMeta(t *testing.T) {
	simk, nodes := build(geom.ChainPlacement(geom.Point{}, 2, 200),
		counter.DefaultParams(), 1)
	_ = simk
	if _, ok := nodes[0].Agent.Policy().(*counter.Policy); !ok {
		t.Fatalf("policy %T", nodes[0].Agent.Policy())
	}
	if nodes[0].Agent.Policy().CostIncrement(nodes[0].Agent) != 1 {
		t.Fatal("counter cost increment must be 1")
	}
}
