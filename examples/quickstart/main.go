// Quickstart: build a small wireless mesh by hand, wire the CLNLR stack
// onto it, send traffic across it and read the metrics — the minimal tour
// of the library's layers (medium → MAC → routing agent → traffic).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"clnlr/internal/core"
	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/mac"
	"clnlr/internal/node"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
	"clnlr/internal/routing"
	"clnlr/internal/traffic"
)

func main() {
	// 1. A simulation kernel and a shared radio channel with two-ray
	//    propagation (the classic 250 m / 550 m WaveLAN ranges).
	simk := des.NewSim()
	medium := radio.NewMedium(simk, radio.NewTwoRay(914e6, 1.5, 1.5))

	// 2. A 4×4 mesh backbone with 180 m spacing, each node running the
	//    full stack with the CLNLR routing agent.
	positions := geom.GridPlacement(geom.Square(720), 4, 4)
	master := rng.New(42)
	nodes := node.BuildNetwork(simk, medium, positions,
		radio.DefaultParams(), mac.DefaultConfig(), master,
		core.Spec(routing.DefaultConfig(), core.DefaultParams()))
	node.StartAll(nodes)

	// 3. One CBR flow corner to corner (a 4+ hop path), measured after a
	//    2-second warm-up.
	mgr := traffic.NewManager(simk, nodes, 30, 2*des.Second)
	mgr.AddFlow(traffic.Flow{
		ID: 0, Src: 0, Dst: 15,
		Payload:  512,
		Interval: 125 * des.Millisecond, // 8 packets/s
		Start:    des.Second,
	}, master.Derive(99))

	// 4. Run 30 simulated seconds and inspect the outcome.
	simk.RunUntil(30 * des.Second)

	fs := mgr.FlowStats(0)
	fmt.Println("CLNLR quickstart — 4x4 mesh, corner-to-corner CBR flow")
	fmt.Printf("  sent        %d packets\n", fs.Sent)
	fmt.Printf("  delivered   %d packets (PDR %.3f)\n", fs.Delivered, fs.PDR())
	fmt.Printf("  mean delay  %.2f ms\n", fs.Delay.Mean()*1000)

	src := nodes[0].Agent
	fmt.Printf("  discoveries %d started, %d succeeded\n",
		src.Ctr.DiscoveriesStarted, src.Ctr.DiscoveriesSucceeded)
	var rreq uint64
	for _, n := range nodes {
		rreq += n.Agent.Ctr.RREQOriginated + n.Agent.Ctr.RREQForwarded
	}
	fmt.Printf("  RREQ tx     %d network-wide\n", rreq)

	// 5. The cross-layer measurements CLNLR routes by are visible per node.
	mid := nodes[5] // an interior forwarder
	ls := mid.Mac.LoadStats()
	fmt.Printf("  node %v load: queue %.3f, channel busy %.3f, combined %.3f\n",
		mid.ID, ls.QueueOcc, ls.BusyFrac, ls.Load)
	fmt.Printf("  node %v neighbourhood load (1-hop): %.3f over %d neighbours\n",
		mid.ID, mid.Agent.NeighborhoodLoad(false), mid.Agent.Neighbors().Count())
}
