// Package traffic generates application workloads (CBR and Poisson flows)
// and measures their delivery at sinks: packet delivery ratio, end-to-end
// delay and throughput, with warm-up filtering.
package traffic

import (
	"fmt"

	"clnlr/internal/des"
	"clnlr/internal/node"
	"clnlr/internal/pkt"
	"clnlr/internal/rng"
	"clnlr/internal/stats"
)

// Flow describes one unidirectional application flow.
type Flow struct {
	ID      int
	Src     pkt.NodeID
	Dst     pkt.NodeID
	Payload int // bytes per packet
	// Interval is the mean inter-packet gap; with Poisson=false packets
	// are strictly periodic (CBR), otherwise exponentially spaced.
	Interval des.Time
	Poisson  bool
	// Start/Stop bound the flow's active period (Stop 0 = run forever).
	Start, Stop des.Time
}

// String renders a compact description.
func (f Flow) String() string {
	kind := "cbr"
	if f.Poisson {
		kind = "poisson"
	}
	return fmt.Sprintf("flow%d %v->%v %s %dB/%v", f.ID, f.Src, f.Dst, kind, f.Payload, f.Interval)
}

// FlowStats aggregates one flow's measured behaviour (post-warm-up).
type FlowStats struct {
	Sent      uint64
	Delivered uint64
	// Delay accumulates end-to-end delays in seconds.
	Delay stats.Welford
	// Bytes counts delivered payload bytes.
	Bytes uint64
}

// PDR returns the packet delivery ratio.
func (fs *FlowStats) PDR() float64 {
	if fs.Sent == 0 {
		return 0
	}
	return float64(fs.Delivered) / float64(fs.Sent)
}

// Manager drives a set of flows over a built network and collects their
// statistics. Packets created before measureFrom are excluded from Sent,
// Delivered and Delay (standard warm-up discipline).
//
// The Manager is the des.Handler of every packet it emits: a flow or a
// probe is an emitter in one slice, and its events carry the emitter's
// index, so a flow costs a stats entry and a slot, not a closure per
// packet source. Reset empties it for the next run, keeping that storage.
type Manager struct {
	sim         *des.Sim
	nodes       []*node.Node
	ttl         int
	measureFrom des.Time
	// stats holds the statistics of each flow ID, dense by ID; added marks
	// the IDs a flow or probe registered.
	stats    []FlowStats
	added    []bool
	emitters []emitter
	uid      uint64
	// sink is the delivery hook installed on every destination node (one
	// method value per manager, not one closure per sink).
	sink func(p *pkt.Packet, from pkt.NodeID)
	// delayHist collects all end-to-end delays (seconds) across flows for
	// quantile reporting; mean/variance live in the per-flow Welfords.
	delayHist *stats.LogHistogram
}

// emitter is one packet source: a flow (its description, its own copy
// of the flow's random stream, its next sequence number) or a one-packet
// probe. Its statistics are stats[flow.ID].
type emitter struct {
	flow Flow
	src  *node.Node
	rng  rng.Source
	seq  int
}

// Typed event ops: arg is the emitter's index.
const (
	opFlow  int32 = iota // emit, then schedule the flow's next packet
	opProbe              // emit once
)

// NewManager creates a traffic manager over the given nodes. ttl is the
// initial hop limit for data packets; measureFrom the warm-up boundary.
func NewManager(sim *des.Sim, nodes []*node.Node, ttl int, measureFrom des.Time) *Manager {
	m := &Manager{
		// Log-bucketed 0.1 ms .. 1000 s at 32 buckets/decade: ~7.5%
		// relative resolution whether the network delivers in a
		// millisecond or crawls through multi-second discovery stalls
		// (the old linear 10 ms bins flattened every sub-bin delay and
		// pinned saturated runs at the 10 s overflow edge).
		delayHist: stats.NewLogHistogram(1e-4, 1e3, 32),
	}
	m.sink = m.deliver
	m.Reset(sim, nodes, ttl, measureFrom)
	return m
}

// Reset empties the manager for a fresh run over nodes, as NewManager
// with the same arguments would build it, keeping the storage of its
// flows, emitters, statistics and delay histogram (warm replication
// reuse). The nodes' delivery hooks must be clear (node.ResetNetwork
// clears them), so the run's flows install the sinks again.
func (m *Manager) Reset(sim *des.Sim, nodes []*node.Node, ttl int, measureFrom des.Time) {
	m.sim, m.nodes, m.ttl, m.measureFrom = sim, nodes, ttl, measureFrom
	m.stats = m.stats[:0]
	m.added = m.added[:0]
	clear(m.emitters)
	m.emitters = m.emitters[:0]
	m.uid = 0
	m.delayHist.Reset()
}

// addStats registers a new flow ID's statistics.
func (m *Manager) addStats(id int) {
	for len(m.stats) <= id {
		m.stats = append(m.stats, FlowStats{})
		m.added = append(m.added, false)
	}
	if m.added[id] {
		panic(fmt.Sprintf("traffic: duplicate flow ID %d", id))
	}
	m.added[id] = true
}

// AddFlow installs a flow and its sink. src must differ from dst. The
// flow's random stream (Poisson gaps, start phase) starts from rngSrc's
// state, which the flow copies: the caller may reuse rngSrc afterwards.
func (m *Manager) AddFlow(f Flow, rngSrc *rng.Source) {
	if f.Src == f.Dst {
		panic("traffic: flow with identical endpoints")
	}
	if f.Interval <= 0 {
		panic("traffic: flow with non-positive interval")
	}
	m.addStats(f.ID)
	m.ensureSink(m.nodes[f.Dst])

	i := len(m.emitters)
	m.emitters = append(m.emitters, emitter{flow: f, src: m.nodes[f.Src], rng: *rngSrc})
	// Desynchronise flow start within one interval.
	start := f.Start + des.Time(m.emitters[i].rng.Intn(int(f.Interval)))
	m.sim.AtCall(start, m, opFlow, uint32(i))
}

// HandleEvent implements des.Handler: emitter i sends its next packet.
func (m *Manager) HandleEvent(op int32, i uint32) {
	e := &m.emitters[i]
	f := &e.flow
	now := m.sim.Now()
	if f.Stop > 0 && now >= f.Stop {
		return
	}
	m.uid++
	p := e.src.Agent.Env.Pool.Data(f.Src, f.Dst, f.Payload, f.ID, e.seq, now, m.ttl)
	p.UID = m.uid
	e.seq++
	if now >= m.measureFrom {
		m.stats[f.ID].Sent++
	}
	e.src.Agent.Send(p)
	if op != opFlow {
		return
	}
	gap := f.Interval
	if f.Poisson {
		gap = des.Time(e.rng.Exp(float64(f.Interval)))
		if gap <= 0 {
			gap = 1
		}
	}
	m.sim.ScheduleCall(gap, m, opFlow, i)
}

// ensureSink installs (once per node) the delivery hook that records
// arriving packets into their flow's stats.
func (m *Manager) ensureSink(n *node.Node) {
	if n.Agent.Env.Deliver != nil {
		return
	}
	n.SetDeliver(m.sink)
}

// deliver records a packet arriving at its destination.
func (m *Manager) deliver(p *pkt.Packet, from pkt.NodeID) {
	if p.Kind != pkt.Data || p.CreatedAt < m.measureFrom {
		return
	}
	if p.FlowID >= len(m.stats) || !m.added[p.FlowID] {
		return
	}
	fs := &m.stats[p.FlowID]
	fs.Delivered++
	fs.Bytes += uint64(p.Bytes)
	d := (m.sim.Now() - p.CreatedAt).Seconds()
	fs.Delay.Add(d)
	m.delayHist.Add(d)
}

// AddProbe schedules a single data packet from src to dst at time `at` and
// tracks it under its own flow ID (Sent=1; Delivered/Delay filled if and
// when it arrives). Probes drive the discovery-round experiments, where
// each probe forces one route discovery.
func (m *Manager) AddProbe(id int, src, dst pkt.NodeID, payload int, at des.Time) {
	if src == dst {
		panic("traffic: probe with identical endpoints")
	}
	m.addStats(id)
	m.ensureSink(m.nodes[dst])
	i := len(m.emitters)
	m.emitters = append(m.emitters, emitter{
		flow: Flow{ID: id, Src: src, Dst: dst, Payload: payload},
		src:  m.nodes[src],
	})
	m.sim.AtCall(at, m, opProbe, uint32(i))
}

// FlowStats returns flow f's statistics, valid until the next AddFlow,
// AddProbe or Reset.
func (m *Manager) FlowStats(f int) *FlowStats { return &m.stats[f] }

// DelayQuantile returns the q-quantile of all measured end-to-end delays
// in seconds (e.g. 0.95 for the p95 delay papers report alongside means).
func (m *Manager) DelayQuantile(q float64) float64 {
	return m.delayHist.Quantile(q)
}

// JainFairness returns Jain's fairness index over per-flow delivery
// ratios: (Σx)² / (n·Σx²), 1 when all flows fare equally, → 1/n when one
// flow monopolises. Flows that sent nothing are excluded.
func (m *Manager) JainFairness() float64 {
	var sum, sumSq float64
	n := 0
	for id := range m.stats {
		fs := &m.stats[id]
		if !m.added[id] || fs.Sent == 0 {
			continue
		}
		x := fs.PDR()
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}

// Totals aggregates all flows.
func (m *Manager) Totals() FlowStats {
	var t FlowStats
	for id := range m.stats {
		fs := &m.stats[id]
		if !m.added[id] {
			continue
		}
		t.Sent += fs.Sent
		t.Delivered += fs.Delivered
		t.Bytes += fs.Bytes
		t.Delay.Merge(fs.Delay)
	}
	return t
}
