package aodv_test

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
	"clnlr/internal/routing/aodv"
)

// nilPool builds test packets: a nil pool allocates and keeps nothing.
var nilPool *pkt.Pool

func buildChain(n int) (*des.Sim, []*node.Node) {
	simk := des.NewSim()
	medium := radio.NewMedium(simk, radio.NewTwoRay(914e6, 1.5, 1.5))
	nodes := node.BuildNetwork(simk, medium,
		geom.ChainPlacement(geom.Point{}, n, 200),
		radio.DefaultParams(), mac.DefaultConfig(), rng.New(5),
		aodv.Spec(routing.DefaultConfig()))
	node.StartAll(nodes)
	return simk, nodes
}

func TestCostIncrementIsHopCount(t *testing.T) {
	if (aodv.Policy{}).CostIncrement(nil) != 1 {
		t.Fatal("flood cost increment must be 1")
	}
}

func TestFloodForwardsFirstCopyOnly(t *testing.T) {
	// Chain 0-1-2-3: node 1 receives the origin's RREQ once, then hears
	// node 2's rebroadcast (a duplicate). It must forward exactly once.
	simk, nodes := buildChain(4)
	simk.ScheduleCall(des.Second, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 3, 128, 0, 0, simk.Now(), 30))
	}), 0, 0)
	simk.RunUntil(10 * des.Second)

	if nodes[3].Agent.Ctr.DataDelivered != 1 {
		t.Fatal("flood did not deliver across the chain")
	}
	for _, i := range []int{1, 2} {
		if got := nodes[i].Agent.Ctr.RREQForwarded; got != 1 {
			t.Fatalf("node %d forwarded %d RREQs, want exactly 1", i, got)
		}
	}
	// Node 1 hears the origin's copy plus node 2's rebroadcast (node 2
	// only hears node 1: its other neighbour is the target, which never
	// rebroadcasts).
	if got := nodes[1].Agent.Ctr.RREQReceived; got < 2 {
		t.Fatalf("node 1 heard %d copies, expected the duplicate from node 2", got)
	}
	// Flood never suppresses first copies.
	for _, n := range nodes {
		if n.Agent.Ctr.RREQSuppressed != 0 {
			t.Fatalf("flood suppressed %d RREQs", n.Agent.Ctr.RREQSuppressed)
		}
	}
}

func TestFloodFirstRREQWinsReply(t *testing.T) {
	// Destination-side: first-wins means exactly one RREP per discovery.
	simk, nodes := buildChain(3)
	simk.ScheduleCall(des.Second, des.Func(func() {
		nodes[0].Agent.Send(nilPool.Data(0, 2, 128, 0, 0, simk.Now(), 30))
	}), 0, 0)
	simk.RunUntil(10 * des.Second)
	if got := nodes[2].Agent.Ctr.RREPSent; got != 1 {
		t.Fatalf("destination sent %d RREPs, want 1", got)
	}
}
