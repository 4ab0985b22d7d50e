// Hotspot: the gateway scenario that motivates load-aware routing. All
// traffic sinks at the mesh's centre node (a wired gateway), so the
// gateway's neighbourhood congests. The example contrasts plain AODV
// flooding with CLNLR on the same workload and shows how the forwarding
// burden redistributes.
//
// Run with: go run ./examples/hotspot
package main

import (
	"fmt"
	"sort"

	"clnlr/internal/des"
	"clnlr/internal/experiments"
	"clnlr/internal/sim"
)

func main() {
	base := sim.DefaultScenario()
	base.Gateway = true
	base.Flows = 12
	base.PacketRate = 10
	base.SessionTime = 10 * des.Second // sessions keep discovery active
	base.Measure = 60 * des.Second

	fmt.Println("Gateway hotspot: 12 flows x 10 pkt/s all sinking at the centre of a 7x7 mesh")
	fmt.Println()
	fmt.Printf("%-12s %8s %10s %10s %10s %12s\n",
		"scheme", "PDR", "delay(ms)", "fwd-std", "max/mean", "RREQ tx")

	schemes := []sim.Scheme{sim.SchemeFlood, sim.SchemeGossip, sim.SchemeCLNLR, sim.SchemeCLNLR2}
	specs := make([]experiments.CellSpec, len(schemes))
	for i, scheme := range schemes {
		specs[i] = experiments.CellSpec{Label: string(scheme), Scenario: base.WithScheme(scheme)}
	}
	cells, err := experiments.RunCells(experiments.Config{Reps: 5}, specs)
	if err != nil {
		panic(err)
	}
	for i, c := range cells {
		pdr := sim.Summarize(c.Results, sim.MetricPDR)
		dly := sim.Summarize(c.Results, sim.MetricDelayMs)
		std := sim.Summarize(c.Results, sim.MetricForwardStd)
		mx := sim.Summarize(c.Results, sim.MetricForwardMax)
		rq := sim.Summarize(c.Results, sim.MetricRREQTx)
		fmt.Printf("%-12s %8.3f %10.1f %10.1f %10.2f %12.0f\n",
			schemes[i], pdr.Mean, dly.Mean, std.Mean, mx.Mean, rq.Mean)
	}

	fmt.Println()
	fmt.Println("max/mean is the peak node's forwarding burden relative to the network")
	fmt.Println("average: lower means the gateway's neighbourhood is less of a hotspot.")

	// Sorted per-replication max/mean for the two headline schemes, to
	// show the distribution rather than just the mean.
	for i, c := range cells {
		if schemes[i] != sim.SchemeFlood && schemes[i] != sim.SchemeCLNLR {
			continue
		}
		vals := make([]float64, len(c.Results))
		for j, r := range c.Results {
			vals[j] = r.ForwardMaxRatio
		}
		sort.Float64s(vals)
		fmt.Printf("  %-8s per-replication max/mean: %v\n", schemes[i], fmtSlice(vals))
	}
}

func fmtSlice(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.2f", x)
	}
	return s + "]"
}
