package sim

import (
	"fmt"

	"clnlr/internal/des"
	"clnlr/internal/stats"
	"clnlr/internal/traffic"
)

// DiscoveryResult summarises a discovery-round experiment: repeated,
// well-separated route discoveries between random endpoint pairs, the
// workload under which broadcast-storm papers report RREQ savings and
// reachability.
type DiscoveryResult struct {
	Scheme Scheme
	Seed   uint64
	Nodes  int
	Rounds int

	// RREQPerRound is the mean number of RREQ transmissions triggered by
	// one discovery (origination + all rebroadcasts).
	RREQPerRound float64
	// SuccessRate is the fraction of rounds whose probe packet arrived —
	// i.e. a route was found and worked.
	SuccessRate float64
	// MeanLatencySec is the mean probe delay over successful rounds
	// (route discovery latency plus one data traversal).
	MeanLatencySec float64
}

// RunDiscovery executes `rounds` sequential route discoveries spaced `gap`
// apart on the scenario's topology and stack. Each round sends a single
// probe packet between a freshly drawn endpoint pair, forcing a full
// discovery. If sc.Flows > 0, that many background CBR flows load the
// network first (the "discovery under load" variants). gap must exceed
// the worst-case discovery time (attempts × DiscoveryTimeout) so rounds
// do not overlap. Mobility, churn, link impairment, the auditor and the
// test hooks apply exactly as in Run: both start from Engine.begin.
func RunDiscovery(sc Scenario, rounds int, gap des.Time) (DiscoveryResult, error) {
	return NewEngine().RunDiscovery(sc, rounds, gap)
}

// RunDiscovery executes the discovery-round experiment on this engine,
// reusing the warm network when compatible (see RunDiscovery).
func (e *Engine) RunDiscovery(sc Scenario, rounds int, gap des.Time) (DiscoveryResult, error) {
	// Discovery runs are valid with zero background flows; validate a copy
	// with that requirement relaxed.
	vsc := sc
	if vsc.Flows == 0 {
		vsc.Flows = 1
	}
	if err := vsc.Validate(); err != nil {
		return DiscoveryResult{}, err
	}
	if rounds <= 0 {
		return DiscoveryResult{}, fmt.Errorf("sim: non-positive discovery rounds")
	}
	minGap := des.Time(sc.Routing.RREQRetries+1) * sc.Routing.DiscoveryTimeout
	if gap <= minGap {
		return DiscoveryResult{}, fmt.Errorf("sim: gap %v must exceed worst-case discovery time %v", gap, minGap)
	}
	horizon := sc.Warmup + des.Time(rounds)*gap
	run, err := e.begin(sc, horizon, nil, nil)
	if err != nil {
		return DiscoveryResult{}, err
	}
	simk, nodes := e.simk, e.nodes

	mgr := traffic.NewManager(simk, nodes, sc.Routing.TTL, 0)

	// Optional background load.
	nBackground := 0
	if sc.Flows > 0 {
		flows, err := pickFlows(sc, run.tp, run.master.Derive(2000))
		if err != nil {
			return DiscoveryResult{}, err
		}
		addFlows(mgr, flows, &run.master)
		for _, f := range flows {
			if f.ID >= nBackground {
				nBackground = f.ID + 1
			}
		}
	}

	// Schedule the probe rounds and counter snapshots around each.
	pairRng := run.master.Derive(4000)
	var gateway = centreNode(run.tp)
	rreqAt := make([]uint64, rounds+1)
	countRREQ := func() uint64 {
		var total uint64
		for _, n := range nodes {
			total += n.Agent.Ctr.RREQOriginated + n.Agent.Ctr.RREQForwarded
		}
		return total
	}
	for i := 0; i < rounds; i++ {
		i := i
		at := sc.Warmup + des.Time(i)*gap
		simk.At(at, func() { rreqAt[i] = countRREQ() })
		s, d, err := pickEndpoints(sc, run.tp, pairRng, gateway)
		if err != nil {
			return DiscoveryResult{}, err
		}
		mgr.AddProbe(nBackground+i, s, d, sc.PayloadBytes, at)
	}
	simk.At(horizon, func() { rreqAt[rounds] = countRREQ() })
	simk.RunUntil(horizon + des.Millisecond)

	// Aggregate.
	res := DiscoveryResult{Scheme: sc.Scheme, Seed: sc.Seed, Nodes: len(nodes), Rounds: rounds}
	var rreq stats.Welford
	var lat stats.Welford
	success := 0
	for i := 0; i < rounds; i++ {
		rreq.Add(float64(rreqAt[i+1] - rreqAt[i]))
		fs := mgr.FlowStats(nBackground + i)
		if fs.Delivered > 0 {
			success++
			lat.Add(fs.Delay.Mean())
		}
	}
	res.RREQPerRound = rreq.Mean()
	res.SuccessRate = float64(success) / float64(rounds)
	res.MeanLatencySec = lat.Mean()
	return res, run.auditErr()
}

// DiscoveryMetric extracts one scalar from a DiscoveryResult.
type DiscoveryMetric func(DiscoveryResult) float64

// Standard discovery metrics.
var (
	DMetricRREQ    DiscoveryMetric = func(r DiscoveryResult) float64 { return r.RREQPerRound }
	DMetricSuccess DiscoveryMetric = func(r DiscoveryResult) float64 { return r.SuccessRate }
	DMetricLatency DiscoveryMetric = func(r DiscoveryResult) float64 { return r.MeanLatencySec * 1000 }
)

// SummarizeDiscovery reduces replications to mean ± CI for one metric.
func SummarizeDiscovery(results []DiscoveryResult, m DiscoveryMetric) stats.Summary {
	xs := make([]float64, len(results))
	for i, r := range results {
		xs[i] = m(r)
	}
	return stats.Summarize(xs)
}
