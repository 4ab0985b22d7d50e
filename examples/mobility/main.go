// Mobility: random-waypoint motion stresses route maintenance — links
// break, RERRs propagate, sources re-discover. This example sweeps the
// maximum node speed and reports delivery, overhead and per-node energy,
// comparing plain AODV flooding with CLNLR.
//
// Run with: go run ./examples/mobility
package main

import (
	"fmt"

	"clnlr/internal/des"
	"clnlr/internal/experiments"
	"clnlr/internal/sim"
)

func main() {
	base := sim.DefaultScenario()
	base.SessionTime = 10 * des.Second
	base.PacketRate = 4
	base.Measure = 40 * des.Second

	fmt.Println("Random-waypoint mobility sweep, 7x7 mesh, 10 flows x 4 pkt/s (3 replications)")
	fmt.Printf("%8s %-8s %8s %10s %10s %12s %10s\n",
		"max m/s", "scheme", "PDR", "delay(ms)", "RREQ tx", "energy(J)", "fairness")

	var specs []experiments.CellSpec
	for _, speed := range []float64{0, 5, 10, 20} {
		for _, scheme := range []sim.Scheme{sim.SchemeFlood, sim.SchemeCLNLR} {
			sc := base.WithScheme(scheme)
			sc.MobilitySpeed = speed
			specs = append(specs, experiments.CellSpec{Label: fmt.Sprintf("%g m/s %s", speed, scheme), Scenario: sc})
		}
	}
	cells, err := experiments.RunCells(experiments.Config{Reps: 3}, specs)
	if err != nil {
		panic(err)
	}
	for i, c := range cells {
		sc := specs[i].Scenario
		pdr := sim.Summarize(c.Results, sim.MetricPDR)
		dly := sim.Summarize(c.Results, sim.MetricDelayMs)
		rreq := sim.Summarize(c.Results, sim.MetricRREQTx)
		en := sim.Summarize(c.Results, sim.MetricEnergyMean)
		fair := sim.Summarize(c.Results, sim.MetricFairness)
		fmt.Printf("%8.0f %-8s %8.3f %10.1f %10.0f %12.1f %10.3f\n",
			sc.MobilitySpeed, sc.Scheme, pdr.Mean, dly.Mean, rreq.Mean, en.Mean, fair.Mean)
	}

	fmt.Println()
	fmt.Println("Motion forces re-discovery: RREQ overhead climbs with speed for both")
	fmt.Println("schemes, with CLNLR's adaptive suppression containing the growth.")
	fmt.Println("Energy is dominated by idle/overhearing cost; the control-traffic")
	fmt.Println("difference shows up in the third decimal of the per-node mean.")
}
