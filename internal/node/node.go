// Package node wires the per-router protocol stack together: radio ↔ MAC ↔
// routing agent ↔ application hooks. It is the composition layer the
// simulation harness and the examples build networks with.
package node

import (
	"fmt"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/mac"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
	"clnlr/internal/routing"
)

// Node is one mesh router's full stack.
type Node struct {
	ID    pkt.NodeID
	Pos   geom.Point
	Radio *radio.Radio
	Mac   *mac.Mac
	Agent *routing.Core

	// macRng and agentRng are the MAC's and the agent's private streams,
	// held here so a warm reset re-derives them in place.
	macRng, agentRng rng.Source

	// clock is the network whose load windows this node's OpSampleLoad
	// event closes: set by StartAll on the node that carries the clock.
	clock []*Node
}

// SetDeliver installs the application sink for data packets addressed to
// this node.
func (n *Node) SetDeliver(f func(p *pkt.Packet, from pkt.NodeID)) {
	n.Agent.Env.Deliver = f
}

// Crash fails the whole stack at once: the radio detaches from the
// medium (truncating any frame it was sending), the MAC flushes its
// queue and timers, and the routing agent loses all volatile state while
// keeping its AODV sequence number. Idempotent.
func (n *Node) Crash() {
	n.Radio.SetDown(true)
	n.Mac.Crash()
	n.Agent.Crash()
}

// Recover reboots a crashed stack. The MAC and agent come up first so
// the radio's re-attachment can replay the current carrier state into a
// clean MAC. Idempotent for a node that is already up.
func (n *Node) Recover() {
	n.Mac.Recover()
	n.Agent.Recover()
	n.Radio.SetDown(false)
}

// Typed DES event ops of a Node (see HandleEvent): a churn schedule
// queues each crash and recovery as one, with no closure per event, and
// the network's load clock is one OpSampleLoad train (see StartAll).
const (
	OpCrash int32 = iota
	OpRecover
	OpSampleLoad
)

// HandleEvent implements des.Handler: OpCrash crashes the stack,
// OpRecover recovers it, and OpSampleLoad is one tick of the load clock
// StartAll put on this node.
func (n *Node) HandleEvent(op int32, _ uint32) {
	switch op {
	case OpCrash:
		n.Crash()
	case OpRecover:
		n.Recover()
	case OpSampleLoad:
		n.sampleLoad()
	default:
		panic(fmt.Sprintf("node: unknown event op %d", op))
	}
}

// BuildNetwork attaches one full stack per position to the medium, each
// node running the scheme spec describes: one spec.Policy() for the whole
// network, shared by every node's agent. The master RNG seeds independent
// per-node streams for the MAC (backoff) and the routing agent (jitter,
// probabilistic forwarding), so runs are reproducible.
func BuildNetwork(
	sim *des.Sim,
	medium *radio.Medium,
	positions []geom.Point,
	radioParams radio.Params,
	macCfg mac.Config,
	master *rng.Source,
	spec routing.Spec,
) []*Node {
	nodes := make([]*Node, len(positions))
	policy := spec.Policy()
	for i, pos := range positions {
		id := pkt.NodeID(i)
		n := &Node{ID: id, Pos: pos}
		master.DeriveInto(&n.macRng, uint64(i), 1)
		master.DeriveInto(&n.agentRng, uint64(i), 2)
		r := medium.Attach(pos, radioParams)
		m := mac.New(macCfg, sim, r, id, &n.macRng)
		// One packet pool per node, shared by the MAC (unicast delivery
		// clones) and the routing agent (everything else). Packets never
		// cross pools: receivers clone what they keep.
		pool := pkt.NewPool()
		m.SetPool(pool)
		env := routing.Env{
			Sim:  sim,
			Mac:  m,
			ID:   id,
			Rng:  &n.agentRng,
			Pool: pool,
		}
		n.Radio, n.Mac = r, m
		n.Agent = routing.New(env, spec.Cfg, policy)
		nodes[i] = n
	}
	// Node IDs are dense 0..N-1 and N is known here: size every dense
	// per-peer structure up front so no run ever grows one on the hot
	// path (the storage persists across warm resets).
	for _, n := range nodes {
		n.Mac.Preallocate(len(nodes))
		n.Agent.Preallocate(len(nodes))
	}
	return nodes
}

// ResetNetwork rebinds an existing network for a fresh run on the same
// (reset) simulation kernel and medium. Positions, MAC state and routing
// agents are reset in place, re-deriving per-node RNG streams into the
// Sources the nodes hold on exactly the schedule BuildNetwork uses —
// (i,1) for the MAC, (i,2) for the agent — so a warm rerun is
// bit-identical to a cold build from the same master.
// Each packet pool keeps its free lists. Every agent runs cfg and policy,
// one value for the whole network: a new one from the scheme's
// routing.Spec, or the network's current policy, which the agents'
// resets empty (see routing.Core.Reset) so a warm engine that keeps its
// scheme builds none.
// The caller must have reset the des.Sim and the radio.Medium first.
func ResetNetwork(
	nodes []*Node,
	positions []geom.Point,
	macCfg mac.Config,
	master *rng.Source,
	cfg routing.Config,
	policy routing.RREQPolicy,
) {
	for i, n := range nodes {
		n.Pos = positions[i]
		master.DeriveInto(&n.macRng, uint64(i), 1)
		master.DeriveInto(&n.agentRng, uint64(i), 2)
		n.Mac.Reset(macCfg, &n.macRng)
		env := routing.Env{
			Sim:  n.Agent.Env.Sim,
			Mac:  n.Mac,
			ID:   n.ID,
			Rng:  &n.agentRng,
			Pool: n.Agent.Env.Pool,
		}
		n.Agent.Reset(env, cfg, policy)
	}
}

// StartAll starts the network's periodic machinery: one load-sampling
// clock for all nodes, then every agent's HELLO beacon. Call once before
// running the simulation.
//
// The clock is one self-rescheduling event per LoadSampleInterval whose
// handler closes every MAC's load window in ID order. It is scheduled
// before any agent starts — a node's window closes before its own beacon
// reads the estimate should the two ever share an instant — and StartAll
// runs before anything else a run schedules, so the clock keeps its place
// against every other periodic event at equal timestamps. It is a typed
// event of the first node, which keeps the network's slice, so starting
// it allocates nothing.
func StartAll(nodes []*Node) {
	if len(nodes) == 0 {
		return
	}
	first := nodes[0]
	first.clock = nodes
	first.Agent.Env.Sim.ScheduleCall(first.Mac.LoadSampleInterval(), first, OpSampleLoad, 0)
	for _, n := range nodes {
		n.Agent.Start()
	}
}

// sampleLoad is one tick of the load clock: every MAC of the network
// closes its load window, in ID order, and the next tick is queued.
func (n *Node) sampleLoad() {
	for _, m := range n.clock {
		m.Mac.SampleLoad()
	}
	n.Agent.Env.Sim.ScheduleCall(n.Mac.LoadSampleInterval(), n, OpSampleLoad, 0)
}
