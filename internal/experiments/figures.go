package experiments

import (
	"fmt"
	"slices"
	"strings"

	"clnlr/internal/des"
	"clnlr/internal/sim"
	"clnlr/internal/stats"
)

// suite is the evaluation suite in print order: one entry per sweep, with
// the IDs of the figures it feeds and the plan that registers its cells
// and returns those figures in the same order.
var suite = []struct {
	ids  []string
	plan func(*planner) []*Figure
}{
	{[]string{"F-R1", "F-R2"}, planR1R2},
	{[]string{"F-R3", "F-R4", "F-R7"}, planR3R4R7},
	{[]string{"F-R5"}, planR5},
	{[]string{"F-R6"}, planR6},
	{[]string{"T-R2"}, planTabR2},
	{[]string{"F-R8"}, planR8},
	{[]string{"F-R9"}, planR9},
	{[]string{"F-R10"}, planR10},
	{[]string{"F-R11"}, planR11},
}

// Run plans the figures with the given IDs — the whole suite when none are
// given — onto one planner and runs them as a single job set, so the
// worker pool stays saturated across figure boundaries. An ID selects its
// whole sweep: F-R4 returns F-R3, F-R4 and F-R7, which share cells.
// Figures come back in suite order. An unknown ID is an error before
// anything runs. With a *PartialError or ErrInterrupted every planned
// figure still comes back, holding the points whose cells completed.
func Run(cfg Config, ids ...string) ([]Figure, error) {
	p := newPlanner(cfg)
	var known []string
	var planned []*Figure
	for _, s := range suite {
		known = append(known, s.ids...)
		if len(ids) == 0 || slices.ContainsFunc(s.ids, func(id string) bool { return slices.Contains(ids, id) }) {
			planned = append(planned, s.plan(p)...)
		}
	}
	for _, id := range ids {
		if !slices.Contains(known, id) {
			return nil, fmt.Errorf("experiments: unknown figure %q (known: %s)", id, strings.Join(known, ", "))
		}
	}
	err := p.run()
	figs := make([]Figure, len(planned))
	for i, f := range planned {
		figs[i] = *f
	}
	return figs, err
}

// point registers a data-plane cell whose replications reduce to a single
// figure Point carrying the named metrics — the shared shape of every
// sweep loop below.
func (p *planner) point(f *Figure, label string, sc sim.Scenario, x float64, scheme string, metrics map[string]sim.Metric) {
	p.add(label, sc, func(c *cell) {
		vals := make(map[string]stats.Summary, len(metrics))
		for name, m := range metrics {
			vals[name] = sim.Summarize(c.results, m)
		}
		f.Points = append(f.Points, Point{X: x, Scheme: scheme, Values: vals})
	})
}

// gridSizes returns the (rows, cols) sweep of the size figures. Area
// scales with the grid so node spacing (≈143 m) and density stay constant,
// isolating the effect of network size.
func gridSizes(cfg Config) [][2]int {
	if cfg.Quick {
		return [][2]int{{4, 4}, {6, 6}, {8, 8}}
	}
	return [][2]int{{4, 4}, {5, 5}, {6, 6}, {7, 7}, {8, 8}, {9, 9}}
}

const gridSpacingM = 1000.0 / 7 // Table R-1 spacing

// discoveryRounds returns the per-run probe count for discovery figures.
func discoveryRounds(cfg Config) int {
	if cfg.Quick {
		return 8
	}
	return 20
}

// planR1R2 registers the discovery-round size sweep: each cell feeds both
// F-R1 (RREQ transmissions per discovery vs network size) and F-R2
// (discovery success rate vs network size).
func planR1R2(p *planner) []*Figure {
	r1 := &Figure{
		ID: "F-R1", Title: "RREQ transmissions per route discovery vs network size",
		XLabel: "nodes", Metrics: []string{"rreq/discovery"},
	}
	r2 := &Figure{
		ID: "F-R2", Title: "Route discovery success rate vs network size",
		XLabel: "nodes", Metrics: []string{"success", "latency-ms"},
	}
	for _, dim := range gridSizes(p.cfg) {
		for _, scheme := range schemeSet(p.cfg) {
			sc := baseScenario(p.cfg).WithScheme(scheme)
			sc.Rows, sc.Cols = dim[0], dim[1]
			sc.AreaM = gridSpacingM * float64(dim[1])
			sc.Flows = 0 // unloaded discovery
			sc.Probes = true
			sc.Measure = des.Time(discoveryRounds(p.cfg)) * sim.ProbeGap
			x := float64(dim[0] * dim[1])
			label := fmt.Sprintf("F-R1/2 %dx%d %s", dim[0], dim[1], scheme)
			p.add(label, sc, func(c *cell) {
				r1.Points = append(r1.Points, Point{X: x, Scheme: string(scheme), Values: map[string]stats.Summary{
					"rreq/discovery": sim.Summarize(c.results, sim.MetricRREQPerProbe),
				}})
				r2.Points = append(r2.Points, Point{X: x, Scheme: string(scheme), Values: map[string]stats.Summary{
					"success":    sim.Summarize(c.results, sim.MetricProbeSuccess),
					"latency-ms": sim.Summarize(c.results, sim.MetricProbeLatencyMs),
				}})
			})
		}
	}
	return []*Figure{r1, r2}
}

// loadRates returns the offered-load sweep (packets/s per flow).
func loadRates(cfg Config) []float64 {
	if cfg.Quick {
		return []float64{4, 12, 20}
	}
	return []float64{2, 4, 8, 12, 16, 20, 24}
}

// planR3R4R7 registers the offered-load sweep: each cell feeds F-R3
// (packet delivery ratio vs load), F-R4 (end-to-end delay vs load) and
// F-R7 (normalized routing overhead vs load).
func planR3R4R7(p *planner) []*Figure {
	r3 := &Figure{ID: "F-R3", Title: "Packet delivery ratio vs offered load",
		XLabel: "pkt/s per flow", Metrics: []string{"pdr"}}
	r4 := &Figure{ID: "F-R4", Title: "End-to-end delay vs offered load (mean and p95)",
		XLabel: "pkt/s per flow", Metrics: []string{"delay-ms", "delay-p95-ms"}}
	r7 := &Figure{ID: "F-R7", Title: "Normalized routing overhead vs offered load",
		XLabel: "pkt/s per flow", Metrics: []string{"ctl/delivered", "rreq-tx"}}
	for _, rate := range loadRates(p.cfg) {
		for _, scheme := range schemeSet(p.cfg) {
			sc := baseScenario(p.cfg).WithScheme(scheme)
			sc.PacketRate = rate
			label := fmt.Sprintf("F-R3/4/7 rate=%v %s", rate, scheme)
			p.add(label, sc, func(c *cell) {
				r3.Points = append(r3.Points, Point{X: rate, Scheme: string(scheme), Values: map[string]stats.Summary{
					"pdr": sim.Summarize(c.results, sim.MetricPDR),
				}})
				r4.Points = append(r4.Points, Point{X: rate, Scheme: string(scheme), Values: map[string]stats.Summary{
					"delay-ms":     sim.Summarize(c.results, sim.MetricDelayMs),
					"delay-p95-ms": sim.Summarize(c.results, sim.MetricDelayP95Ms),
				}})
				r7.Points = append(r7.Points, Point{X: rate, Scheme: string(scheme), Values: map[string]stats.Summary{
					"ctl/delivered": sim.Summarize(c.results, sim.MetricNormOverhead),
					"rreq-tx":       sim.Summarize(c.results, sim.MetricRREQTx),
				}})
			})
		}
	}
	return []*Figure{r3, r4, r7}
}

// flowCounts returns the flow-count sweep of F-R5.
func flowCounts(cfg Config) []int {
	if cfg.Quick {
		return []int{5, 15}
	}
	return []int{2, 5, 10, 15, 20, 25}
}

// planR5 registers throughput versus the number of concurrent flows.
func planR5(p *planner) []*Figure {
	f := &Figure{ID: "F-R5", Title: "Aggregate delivered throughput vs number of flows",
		XLabel: "flows", Metrics: []string{"kbps", "pdr"}}
	for _, flows := range flowCounts(p.cfg) {
		for _, scheme := range schemeSet(p.cfg) {
			sc := baseScenario(p.cfg).WithScheme(scheme)
			sc.Flows = flows
			sc.PacketRate = 8
			p.point(f, fmt.Sprintf("F-R5 flows=%d %s", flows, scheme),
				sc, float64(flows), string(scheme), map[string]sim.Metric{
					"kbps": sim.MetricThroughput,
					"pdr":  sim.MetricPDR,
				})
		}
	}
	return []*Figure{f}
}

// planR6 registers the load-balance comparison: the distribution of
// per-node forwarding burden under the uniform and gateway (hotspot)
// workloads. X encodes the workload: 0 = uniform, 1 = gateway.
func planR6(p *planner) []*Figure {
	f := &Figure{ID: "F-R6", Title: "Forwarding load balance (0 = uniform workload, 1 = gateway hotspot)",
		XLabel: "workload", Metrics: []string{"fwd-std", "fwd-max/mean", "pdr"}}
	for _, gateway := range []bool{false, true} {
		for _, scheme := range schemeSet(p.cfg) {
			sc := baseScenario(p.cfg).WithScheme(scheme)
			sc.Gateway = gateway
			sc.PacketRate = 10
			x := 0.0
			if gateway {
				x = 1
			}
			p.point(f, fmt.Sprintf("F-R6 gw=%v %s", gateway, scheme),
				sc, x, string(scheme), map[string]sim.Metric{
					"fwd-std":      sim.MetricForwardStd,
					"fwd-max/mean": sim.MetricForwardMax,
					"pdr":          sim.MetricPDR,
				})
		}
	}
	return []*Figure{f}
}

// planTabR2 registers the summary table at the default operating point:
// every headline metric for every scheme (X = 0 for all points).
func planTabR2(p *planner) []*Figure {
	f := &Figure{ID: "T-R2", Title: "Summary at the default operating point (10 flows × 8 pkt/s)",
		XLabel: "-", Metrics: []string{"pdr", "delay-ms", "rreq-tx", "ctl/delivered", "fwd-max/mean", "discovery"}}
	for _, scheme := range schemeSet(p.cfg) {
		sc := baseScenario(p.cfg).WithScheme(scheme)
		sc.PacketRate = 8
		p.point(f, fmt.Sprintf("T-R2 %s", scheme),
			sc, 0, string(scheme), map[string]sim.Metric{
				"pdr":           sim.MetricPDR,
				"delay-ms":      sim.MetricDelayMs,
				"rreq-tx":       sim.MetricRREQTx,
				"ctl/delivered": sim.MetricNormOverhead,
				"fwd-max/mean":  sim.MetricForwardMax,
				"discovery":     sim.MetricDiscovery,
			})
	}
	return []*Figure{f}
}

// planR8 registers the CLNLR ablation: neighbourhood depth, Beta
// (load-aware cost on/off) and Gamma (suppression aggressiveness) at a
// loaded operating point. X indexes the variant.
func planR8(p *planner) []*Figure {
	f := &Figure{ID: "F-R8", Title: "CLNLR ablation at 10 flows × 12 pkt/s (variants indexed)",
		XLabel: "variant", Metrics: []string{"pdr", "delay-ms", "rreq-tx", "fwd-max/mean"}}
	type variant struct {
		name string
		mut  func(*sim.Scenario)
	}
	variants := []variant{
		{"clnlr-default", func(sc *sim.Scenario) {}},
		{"2hop", func(sc *sim.Scenario) { sc.Scheme = sim.SchemeCLNLR2 }},
		{"beta0", func(sc *sim.Scenario) { sc.CLNLR.Beta = 0 }},
		{"beta4", func(sc *sim.Scenario) { sc.CLNLR.Beta = 4 }},
		{"gamma0.5", func(sc *sim.Scenario) { sc.CLNLR.Gamma = 0.5 }},
		{"gamma3", func(sc *sim.Scenario) { sc.CLNLR.Gamma = 3 }},
		{"no-window", func(sc *sim.Scenario) { sc.CLNLR.ReplyWindow = 0 }},
		{"no-retry-boost", func(sc *sim.Scenario) { sc.CLNLR.RetryBoost = 0 }},
		{"rts-cts", func(sc *sim.Scenario) { sc.Mac.RTSThreshold = 256 }},
		{"expanding-ring", func(sc *sim.Scenario) { sc.Routing.ExpandingRing = []int{2, 4} }},
		{"ctl-priority", func(sc *sim.Scenario) { sc.Mac.ControlPriority = true }},
		{"auto-rate", func(sc *sim.Scenario) { sc.Mac.AutoRate = true }},
	}
	if p.cfg.Quick {
		variants = variants[:4]
	}
	for i, v := range variants {
		sc := baseScenario(p.cfg).WithScheme(sim.SchemeCLNLR)
		sc.PacketRate = 12
		v.mut(&sc)
		p.point(f, fmt.Sprintf("F-R8 %s", v.name),
			sc, float64(i), v.name, map[string]sim.Metric{
				"pdr":          sim.MetricPDR,
				"delay-ms":     sim.MetricDelayMs,
				"rreq-tx":      sim.MetricRREQTx,
				"fwd-max/mean": sim.MetricForwardMax,
			})
	}
	return []*Figure{f}
}

// densityCounts returns the node-count sweep of F-R9 (fixed 1000×1000 m
// area, uniform random placement).
func densityCounts(cfg Config) []int {
	if cfg.Quick {
		return []int{40, 80}
	}
	return []int{30, 40, 50, 65, 80, 100}
}

// planR9 registers the density sweep: random topologies with increasing
// node count in a fixed area.
func planR9(p *planner) []*Figure {
	f := &Figure{ID: "F-R9", Title: "Random-topology density sweep (fixed 1000 m² area)",
		XLabel: "nodes", Metrics: []string{"pdr", "rreq-tx", "delay-ms"}}
	for _, n := range densityCounts(p.cfg) {
		for _, scheme := range schemeSet(p.cfg) {
			sc := baseScenario(p.cfg).WithScheme(scheme)
			sc.Topology = sim.TopoRandom
			sc.Nodes = n
			sc.PacketRate = 8
			p.point(f, fmt.Sprintf("F-R9 n=%d %s", n, scheme),
				sc, float64(n), string(scheme), map[string]sim.Metric{
					"pdr":      sim.MetricPDR,
					"rreq-tx":  sim.MetricRREQTx,
					"delay-ms": sim.MetricDelayMs,
				})
		}
	}
	return []*Figure{f}
}

// mobilitySpeeds returns the max-speed sweep of F-R10 (m/s).
func mobilitySpeeds(cfg Config) []float64 {
	if cfg.Quick {
		return []float64{0, 10}
	}
	return []float64{0, 2, 5, 10, 15, 20}
}

// planR10 registers the mobility extension: random-waypoint node motion
// stresses link breakage, RERR propagation and re-discovery. (The paper's
// mesh backbone is static; this reproduces the MANET-style robustness
// sweep the authors' companion papers report.)
func planR10(p *planner) []*Figure {
	f := &Figure{ID: "F-R10", Title: "Mobility extension: random waypoint, PDR/overhead vs max speed",
		XLabel: "max speed (m/s)", Metrics: []string{"pdr", "rreq-tx", "delay-ms"}}
	for _, speed := range mobilitySpeeds(p.cfg) {
		for _, scheme := range schemeSet(p.cfg) {
			sc := baseScenario(p.cfg).WithScheme(scheme)
			sc.MobilitySpeed = speed
			sc.PacketRate = 4
			p.point(f, fmt.Sprintf("F-R10 v=%v %s", speed, scheme),
				sc, speed, string(scheme), map[string]sim.Metric{
					"pdr":      sim.MetricPDR,
					"rreq-tx":  sim.MetricRREQTx,
					"delay-ms": sim.MetricDelayMs,
				})
		}
	}
	return []*Figure{f}
}

// failureRates returns the node-churn sweep of F-R11 (expected crashes
// per node-minute; 0 = the fault-free baseline).
func failureRates(cfg Config) []float64 {
	if cfg.Quick {
		return []float64{0, 2}
	}
	return []float64{0, 0.5, 1, 2, 4}
}

// planR11 registers the resilience extension: deterministic node churn at
// increasing failure rates. Each crash takes a node fully down for ~10 s —
// radio detached, MAC queue flushed, volatile routing state lost — so the
// sweep stresses RERR propagation, re-discovery and route repair around
// dead relays. Sequence numbers persist across the restart (RFC 3561
// §6.1), keeping recovered nodes loop-free.
func planR11(p *planner) []*Figure {
	f := &Figure{ID: "F-R11", Title: "Resilience: node churn, PDR/overhead/delay vs failure rate",
		XLabel: "failures per node-minute", Metrics: []string{"pdr", "ctl/delivered", "delay-ms"}}
	for _, rate := range failureRates(p.cfg) {
		for _, scheme := range schemeSet(p.cfg) {
			sc := baseScenario(p.cfg).WithScheme(scheme)
			sc.PacketRate = 4
			if rate > 0 {
				sc.Faults.MeanUpTime = des.Time(float64(60*des.Second) / rate)
				sc.Faults.MeanDownTime = 10 * des.Second
			}
			p.point(f, fmt.Sprintf("F-R11 rate=%v %s", rate, scheme),
				sc, rate, string(scheme), map[string]sim.Metric{
					"pdr":           sim.MetricPDR,
					"ctl/delivered": sim.MetricNormOverhead,
					"delay-ms":      sim.MetricDelayMs,
				})
		}
	}
	return []*Figure{f}
}

// TabR1 renders the simulation-parameter table (static configuration).
func TabR1() string {
	sc := sim.DefaultScenario()
	return fmt.Sprintf(`T-R1 — Simulation parameters
  PHY                 802.11b DSSS, two-ray ground propagation (914 MHz)
  Data / basic rate   %d / %d Mb/s
  TX range / CS range 250 m / 550 m
  Area                %.0f x %.0f m
  Default topology    %dx%d grid (%d nodes)
  MAC                 DCF, CWmin %d, CWmax %d, retry limit %d, queue %d pkts
  Traffic             %d CBR flows, %g pkt/s x %d B, 10 s sessions
  Warm-up / measure   %v / %v
  Replications        10 (95%% confidence intervals)
  Schemes             flood (AODV), gossip(p=%.1f,k=%d), counter(C=%d), CLNLR, CLNLR-2hop
  CLNLR               PBase %.2f, PMin %.2f, Gamma %.1f, Beta %.1f, window %v, HELLO %v
`,
		sc.Mac.DataRateBps/1_000_000, sc.Mac.BasicRateBps/1_000_000,
		sc.AreaM, sc.AreaM, sc.Rows, sc.Cols, sc.Rows*sc.Cols,
		sc.Mac.CWMin, sc.Mac.CWMax, sc.Mac.RetryLimit, sc.Mac.QueueCap,
		sc.Flows, sc.PacketRate, sc.PayloadBytes,
		sc.Warmup, sc.Measure,
		sc.Gossip.P, sc.Gossip.K, sc.Counter.C,
		sc.CLNLR.PBase, sc.CLNLR.PMin, sc.CLNLR.Gamma, sc.CLNLR.Beta,
		sc.CLNLR.ReplyWindow, sc.CLNLR.HelloInterval)
}
