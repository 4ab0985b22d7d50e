// Protocolcompare: all five route-discovery schemes side by side on one
// moderately loaded mesh scenario — the quickest way to see the
// overhead/robustness trade-off the CLNLR paper studies.
//
// Run with: go run ./examples/protocolcompare
package main

import (
	"fmt"

	"clnlr/internal/des"
	"clnlr/internal/experiments"
	"clnlr/internal/sim"
)

func main() {
	sc := sim.DefaultScenario()
	sc.PacketRate = 12
	sc.SessionTime = 10 * des.Second
	sc.Measure = 60 * des.Second

	fmt.Printf("7x7 mesh, %d flows x %g pkt/s x %d B, 10 s sessions, 5 replications\n\n",
		sc.Flows, sc.PacketRate, sc.PayloadBytes)
	fmt.Printf("%-12s %16s %16s %16s %16s\n",
		"scheme", "PDR", "delay (ms)", "RREQ tx", "ctl/delivered")

	// One planner run covers both tables: a data-plane cell and a
	// 15-probe discovery cell (no background flows) per scheme.
	schemes := sim.AllSchemes()
	dsc := sc
	dsc.Flows = 0
	dsc.Probes = true
	dsc.Measure = 15 * sim.ProbeGap
	specs := make([]experiments.CellSpec, 2*len(schemes))
	for i, scheme := range schemes {
		specs[i] = experiments.CellSpec{Label: string(scheme), Scenario: sc.WithScheme(scheme)}
		specs[len(schemes)+i] = experiments.CellSpec{Label: string(scheme) + " discovery", Scenario: dsc.WithScheme(scheme)}
	}
	cells, err := experiments.RunCells(experiments.Config{Reps: 5}, specs)
	if err != nil {
		panic(err)
	}

	for i, scheme := range schemes {
		rs := cells[i].Results
		pdr := sim.Summarize(rs, sim.MetricPDR)
		dly := sim.Summarize(rs, sim.MetricDelayMs)
		rreq := sim.Summarize(rs, sim.MetricRREQTx)
		ovh := sim.Summarize(rs, sim.MetricNormOverhead)
		fmt.Printf("%-12s %8.3f ±%5.3f %9.1f ±%5.1f %9.0f ±%5.0f %9.2f ±%5.2f\n",
			scheme, pdr.Mean, pdr.CI95, dly.Mean, dly.CI95,
			rreq.Mean, rreq.CI95, ovh.Mean, ovh.CI95)
	}

	fmt.Println()
	fmt.Println("Also compare pure discovery behaviour (no data traffic):")
	fmt.Printf("%-12s %18s %12s %14s\n", "scheme", "RREQ/discovery", "success", "latency (ms)")
	for i, scheme := range schemes {
		rs := cells[len(schemes)+i].Results
		rq := sim.Summarize(rs, sim.MetricRREQPerProbe)
		su := sim.Summarize(rs, sim.MetricProbeSuccess)
		la := sim.Summarize(rs, sim.MetricProbeLatencyMs)
		fmt.Printf("%-12s %10.1f ±%5.1f %7.2f ±%4.2f %9.1f ±%5.1f\n",
			scheme, rq.Mean, rq.CI95, su.Mean, su.CI95, la.Mean, la.CI95)
	}
}
