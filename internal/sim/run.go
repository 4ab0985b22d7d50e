package sim

import (
	"fmt"
	"math"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/mobility"
	"clnlr/internal/node"
	"clnlr/internal/pkt"
	"clnlr/internal/rng"
	"clnlr/internal/stats"
	"clnlr/internal/topo"
	"clnlr/internal/traffic"
)

// Result holds one run's measured metrics (post-warm-up).
type Result struct {
	Scheme Scheme
	Seed   uint64
	Nodes  int

	// Data plane.
	Sent           uint64
	Delivered      uint64
	PDR            float64
	MeanDelaySec   float64
	ThroughputKbps float64

	// Control plane.
	RREQTx           uint64  // RREQ transmissions (originations + forwards)
	ControlTx        uint64  // all routing control transmissions
	RREQPerDiscovery float64 // RREQ transmissions per discovery started
	NormOverhead     float64 // control transmissions per delivered data packet
	DiscoveryRate    float64 // discoveries succeeded / started (1 if none started)

	// Load balance of the forwarding burden across nodes.
	ForwardMean     float64
	ForwardStd      float64
	ForwardMaxRatio float64 // max node forwards / mean forwards

	// MAC-level losses.
	MACQueueDrops uint64
	MACRetryDrops uint64

	// Energy consumed during the measurement window (Joules).
	EnergyMeanJ float64
	EnergyMaxJ  float64

	// FlowFairness is Jain's index over per-flow delivery ratios.
	FlowFairness float64

	// DelayP95Sec is the 95th-percentile end-to-end delay; DelayP50Sec and
	// DelayP99Sec the median and tail companions papers report beside it.
	DelayP95Sec float64
	DelayP50Sec float64
	DelayP99Sec float64

	// Discovery probes (Scenario.Probes): probes sent and delivered, and
	// the mean delay of the delivered ones (route discovery plus one data
	// traversal). The data-plane fields above count the probes too.
	ProbesSent      uint64  `json:",omitempty"`
	ProbesDelivered uint64  `json:",omitempty"`
	ProbeDelaySec   float64 `json:",omitempty"`
}

// attachMobility starts the engine's random-waypoint model over the
// nodes when the scenario requests one. The model, its per-node legs and
// its step event are the engine's, reset for every run.
func (e *Engine) attachMobility(sc Scenario, master *rng.Source) {
	if sc.MobilitySpeed <= 0 {
		return
	}
	cfg := mobility.DefaultConfig(sc.MobilitySpeed)
	if sc.MobilityPause > 0 {
		cfg.Pause = sc.MobilityPause
	}
	w := &e.walker
	w.Reset(e.simk, geom.Square(sc.AreaM), cfg)
	var moveRng, src rng.Source
	master.DeriveInto(&moveRng, 5000)
	for i, n := range e.nodes {
		moveRng.DeriveInto(&src, uint64(i))
		w.Track(n.Pos, n.Radio, &src)
	}
	w.Start()
}

// attachFaults schedules the scenario's crash/recover events over
// [0, horizon). The whole schedule is materialised up front from a
// dedicated stream (Derive(7000), then per-node Derive(i) inside
// DrawSchedule), so the randomness consumed never depends on event
// interleaving — the determinism contract fault injection lives under.
// The schedule is drawn into the engine's slice, reused run after run.
// With churn disabled this consumes nothing and schedules nothing.
//
// It returns the number of crash and recover events falling inside the
// measurement window [sc.Warmup, horizon] — the fault-layer counters the
// metrics collector registers. Counting the materialised schedule keeps
// the numbers a pure function of the seed at zero runtime cost.
func (e *Engine) attachFaults(sc Scenario, master *rng.Source, horizon des.Time) (crashEvents, recoverEvents uint64) {
	if !sc.Faults.ChurnEnabled() {
		return 0, 0
	}
	var src rng.Source
	master.DeriveInto(&src, 7000)
	e.churn = sc.Faults.DrawSchedule(e.churn, len(e.nodes), horizon, &src)
	for _, ev := range e.churn {
		n := e.nodes[ev.Node]
		if ev.Up {
			e.simk.AtCall(ev.At, n, node.OpRecover, 0)
		} else {
			e.simk.AtCall(ev.At, n, node.OpCrash, 0)
		}
		if ev.At >= sc.Warmup {
			if ev.Up {
				recoverEvents++
			} else {
				crashEvents++
			}
		}
	}
	return crashEvents, recoverEvents
}

// place generates node positions per the scenario topology into pts's
// storage and checks their connectivity into tp, whose storage every try
// reuses too. Random placements are re-drawn (with derived seeds) until
// connected.
func place(sc Scenario, master *rng.Source, tp *topo.Topology, pts []geom.Point) ([]geom.Point, error) {
	region := geom.Square(sc.AreaM)
	var src rng.Source
	const maxTries = 50
	for try := uint64(0); try < maxTries; try++ {
		master.DeriveInto(&src, 100, try)
		switch sc.Topology {
		case TopoPerturbedGrid:
			pts = geom.PerturbedGridPlacement(pts, region, sc.Rows, sc.Cols, sc.PerturbFrac, &src)
		case TopoRandom:
			pts = geom.UniformPlacement(pts, region, sc.Nodes, &src)
		default:
			pts = geom.AppendGrid(pts, region, sc.Rows, sc.Cols)
		}
		// The connectivity check uses the medium's propagation (at t=0;
		// fading models are evaluated in their first coherence slot).
		tp.Reset(pts, sc.propagation(), sc.Radio)
		if tp.Connected() {
			return pts, nil
		}
		if sc.Topology != TopoRandom && sc.Topology != TopoPerturbedGrid {
			return nil, fmt.Errorf("sim: %s placement is disconnected", sc.Topology)
		}
	}
	return nil, fmt.Errorf("sim: no connected %s placement found in %d tries", sc.Topology, maxTries)
}

// pickEndpoints draws a (src, dst) pair at least MinHopDist hops apart.
// With Gateway set, dst is pinned to the node nearest the region centre.
func pickEndpoints(sc Scenario, tp *topo.Topology, src *rng.Source, gateway pkt.NodeID) (pkt.NodeID, pkt.NodeID, error) {
	n := tp.N()
	for attempt := 0; attempt < 1000; attempt++ {
		s := pkt.NodeID(src.Intn(n))
		d := gateway
		if !sc.Gateway {
			d = pkt.NodeID(src.Intn(n))
		}
		if s == d {
			continue
		}
		if tp.Hops(s, d) < sc.MinHopDist {
			continue
		}
		return s, d, nil
	}
	return 0, 0, fmt.Errorf("sim: cannot find endpoints %d hops apart", sc.MinHopDist)
}

// addFlows installs the run's flows on mgr, flow f drawing from
// master.Derive(3000).Derive(f.ID). The streams are derived into one
// reused Source, which AddFlow copies.
func addFlows(mgr *traffic.Manager, flows []traffic.Flow, master *rng.Source) {
	var flowRng, src rng.Source
	master.DeriveInto(&flowRng, 3000)
	for _, f := range flows {
		flowRng.DeriveInto(&src, uint64(f.ID))
		mgr.AddFlow(f, &src)
	}
}

// pickFlows builds the workload, appending it to flows (a warm engine
// passes last run's slice, emptied, so its storage is reused). Without
// SessionTime each flow slot is one immortal flow; with it, each slot is
// a train of back-to-back sessions with freshly drawn endpoints,
// staggered across slots so discoveries are spread over the run.
func pickFlows(sc Scenario, tp *topo.Topology, src *rng.Source, flows []traffic.Flow) ([]traffic.Flow, error) {
	interval := des.FromSeconds(1 / sc.PacketRate)
	var gateway pkt.NodeID
	if sc.Gateway {
		gateway = centreNode(tp)
	}
	end := sc.Warmup + sc.Measure
	id := 0
	for slot := 0; slot < sc.Flows; slot++ {
		if sc.SessionTime <= 0 {
			s, d, err := pickEndpoints(sc, tp, src, gateway)
			if err != nil {
				return nil, err
			}
			flows = append(flows, traffic.Flow{
				ID: id, Src: s, Dst: d,
				Payload:  sc.PayloadBytes,
				Interval: interval,
				Poisson:  sc.Poisson,
				Start:    sc.TrafficStart,
			})
			id++
			continue
		}
		// Stagger slot starts across one session so the discovery load is
		// spread in time rather than synchronised.
		start := sc.TrafficStart + sc.SessionTime*des.Time(slot)/des.Time(sc.Flows)
		for t := start; t < end; t += sc.SessionTime {
			s, d, err := pickEndpoints(sc, tp, src, gateway)
			if err != nil {
				return nil, err
			}
			flows = append(flows, traffic.Flow{
				ID: id, Src: s, Dst: d,
				Payload:  sc.PayloadBytes,
				Interval: interval,
				Poisson:  sc.Poisson,
				Start:    t,
				Stop:     t + sc.SessionTime,
			})
			id++
		}
	}
	return flows, nil
}

// addProbes schedules the probe workload of sc.Probes on mgr: probe i
// leaves at Warmup + i·ProbeGap under flow ID first+i, its endpoints
// drawn from master.Derive(4000).
func addProbes(mgr *traffic.Manager, sc Scenario, tp *topo.Topology, master *rng.Source, first int) error {
	src := master.Derive(4000)
	var gateway pkt.NodeID
	if sc.Gateway {
		gateway = centreNode(tp)
	}
	for i := 0; i < int(sc.Measure/ProbeGap); i++ {
		s, d, err := pickEndpoints(sc, tp, src, gateway)
		if err != nil {
			return err
		}
		mgr.AddProbe(first+i, s, d, sc.PayloadBytes, sc.Warmup+des.Time(i)*ProbeGap)
	}
	return nil
}

// foldProbes fills r's probe fields from mgr's flows first, first+1, …:
// the probes, in round order.
func foldProbes(r *Result, mgr *traffic.Manager, sc Scenario, first int) {
	var delay stats.Welford
	for id := first; id < first+int(sc.Measure/ProbeGap); id++ {
		fs := mgr.FlowStats(id)
		r.ProbesSent += fs.Sent
		if fs.Delivered > 0 {
			r.ProbesDelivered++
			delay.Add(fs.Delay.Mean())
		}
	}
	r.ProbeDelaySec = delay.Mean()
}

// centreNode returns the node closest to the deployment centre.
func centreNode(tp *topo.Topology) pkt.NodeID {
	var cx, cy float64
	for _, p := range tp.Positions {
		cx += p.X
		cy += p.Y
	}
	c := geom.Point{X: cx / float64(tp.N()), Y: cy / float64(tp.N())}
	best := 0
	bestD := math.Inf(1)
	for i, p := range tp.Positions {
		if d := p.Dist2(c); d < bestD {
			bestD = d
			best = i
		}
	}
	return pkt.NodeID(best)
}

// extract computes the Result from the counters of the measurement
// window and each node's energy since its warm-up reading warmJoules.
func extract(sc Scenario, nodes []*node.Node, mgr *traffic.Manager, warmJoules []float64) Result {
	tot := mgr.Totals()
	r := Result{
		Scheme:    sc.Scheme,
		Seed:      sc.Seed,
		Nodes:     len(nodes),
		Sent:      tot.Sent,
		Delivered: tot.Delivered,
	}
	if tot.Sent > 0 {
		r.PDR = float64(tot.Delivered) / float64(tot.Sent)
	}
	r.MeanDelaySec = tot.Delay.Mean()
	r.ThroughputKbps = float64(tot.Bytes) * 8 / 1000 / sc.Measure.Seconds()
	r.FlowFairness = mgr.JainFairness()
	r.DelayP95Sec = mgr.DelayQuantile(0.95)
	r.DelayP50Sec = mgr.DelayQuantile(0.5)
	r.DelayP99Sec = mgr.DelayQuantile(0.99)

	var started, succeeded uint64
	var fw, en stats.Welford
	maxFw, maxJ := 0.0, 0.0
	for i, n := range nodes {
		c := &n.Agent.Ctr
		r.RREQTx += c.RREQOriginated + c.RREQForwarded
		r.ControlTx += c.ControlPacketsSent()
		started += c.DiscoveriesStarted
		succeeded += c.DiscoveriesSucceeded

		f := float64(c.DataForwarded)
		fw.Add(f)
		if f > maxFw {
			maxFw = f
		}

		r.MACQueueDrops += n.Mac.Ctr.DroppedQueueFull
		r.MACRetryDrops += n.Mac.Ctr.DroppedRetryLimit

		j := n.Mac.Energy().Joules - warmJoules[i]
		en.Add(j)
		if j > maxJ {
			maxJ = j
		}
	}
	if started > 0 {
		r.RREQPerDiscovery = float64(r.RREQTx) / float64(started)
		r.DiscoveryRate = float64(succeeded) / float64(started)
	} else {
		r.DiscoveryRate = 1
	}
	if tot.Delivered > 0 {
		r.NormOverhead = float64(r.ControlTx) / float64(tot.Delivered)
	} else {
		r.NormOverhead = float64(r.ControlTx)
	}
	r.EnergyMeanJ = en.Mean()
	r.EnergyMaxJ = maxJ
	r.ForwardMean = fw.Mean()
	r.ForwardStd = fw.Std()
	if fw.Mean() > 0 {
		r.ForwardMaxRatio = maxFw / fw.Mean()
	}
	return r
}
