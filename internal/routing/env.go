// Package routing implements the on-demand (AODV-style) routing machinery
// shared by every scheme in this repository: route table with sequence
// numbers, RREQ duplicate cache, route discovery with retry, packet
// buffering, RREP handling, link-failure detection and RERR propagation,
// and the optional HELLO beaconing that carries cross-layer load
// information.
//
// The schemes under comparison (flood/AODV, gossip, counter-based, and the
// paper's CLNLR in internal/core, of which gossip-adaptive is one
// parameter point) differ only in two pluggable points:
//
//   - RREQPolicy: whether/when to rebroadcast a received RREQ, and each
//     node's additive contribution to the accumulated path cost;
//   - Config.ReplyWindow: 0 for classic first-RREQ-wins replies, >0 for
//     CLNLR's collect-and-reply-to-minimum-cost behaviour.
//
// A scheme is a Spec, its effective Config plus a Policy constructor
// called once per network; each scheme package's Spec function is the
// only way to build its agents. Everything else is deliberately
// identical so experiment differences are attributable to the scheme,
// not the plumbing.
package routing

import (
	"clnlr/internal/des"
	"clnlr/internal/journey"
	"clnlr/internal/mac"
	"clnlr/internal/pkt"
	"clnlr/internal/rng"
)

// Env is the node-local environment handed to a routing agent.
type Env struct {
	Sim *des.Sim
	Mac *mac.Mac
	ID  pkt.NodeID
	Rng *rng.Source
	// Deliver receives data packets addressed to this node (the
	// application sink). May be nil.
	Deliver func(p *pkt.Packet, from pkt.NodeID)
	// Pool builds and recycles this node's packets (see pkt.Pool for the
	// ownership discipline). A nil Pool is a valid one that allocates
	// every packet fresh and keeps nothing, so a pool-less Env behaves
	// identically, just with GC churn.
	Pool *pkt.Pool
	// Journey, when non-nil, receives packet-lifecycle, decision-provenance
	// and route events (zero cost when nil: one branch per hook). The
	// hooks observe only — they never schedule events or draw randomness —
	// so an instrumented run stays bit-identical to a plain one.
	Journey *journey.Recorder
}

// RREQPolicy is the per-scheme RREQ handling hook. It carries no name:
// a scheme is named by the harness (sim.Scheme) that picks its Spec.
type RREQPolicy interface {
	// OnRREQ is invoked for every intact RREQ copy arriving at a node
	// that is neither its origin nor its target, after reverse-route
	// bookkeeping. first is true for the first copy of this flood seen
	// here. The policy forwards by calling c.ForwardRREQ (immediately or
	// from a later event it schedules). p is only borrowed for the
	// duration of the call — the sender's pool reclaims it after the
	// transmission — so a policy that defers its decision must keep its
	// own c.Env.Pool.Clone and release it once resolved (ForwardRREQ
	// itself clones, so synchronous forwarding needs nothing).
	OnRREQ(c *Core, p *pkt.Packet, from pkt.NodeID, first bool)
	// CostIncrement is this node's additive contribution to the RREQ's
	// accumulated path cost when it forwards (1 for load-blind schemes).
	CostIncrement(c *Core) float64
	// HeldPackets and ReleaseHeld account for pooled packets the policy
	// retains across events (the counter scheme's assessments; a policy
	// that decides synchronously embeds HoldsNothing). One policy value
	// serves every node of a network, so they answer per node: the
	// invariant auditor sums what a policy holds for a core with the
	// core's and the MAC's own holdings against that node's pool ledger,
	// and a warm Reset, which has discarded the events that would have
	// resolved them, hands them back to the node's pool. They are methods
	// of every policy rather than an optional interface so that asking
	// costs no dynamic type assertion, whose runtime cache would allocate
	// at random on a warm engine.
	HeldPackets(c *Core) int
	// ReleaseHeld returns every packet the policy retains for c to c's
	// pool and forgets the state that held it.
	ReleaseHeld(c *Core)
}

// HoldsNothing is embedded by a policy that retains no packets: its
// HeldPackets is 0 and its ReleaseHeld does nothing.
type HoldsNothing struct{}

// HeldPackets implements RREQPolicy: nothing is held.
func (HoldsNothing) HeldPackets(*Core) int { return 0 }

// ReleaseHeld implements RREQPolicy: there is nothing to release.
func (HoldsNothing) ReleaseHeld(*Core) {}

// Counters tallies routing-layer events for the measurement harness.
type Counters struct {
	// Route-request traffic.
	RREQOriginated uint64 // floods started (incl. retries)
	RREQForwarded  uint64 // rebroadcasts submitted to the MAC
	RREQReceived   uint64 // copies heard
	RREQSuppressed uint64 // copies the policy chose not to forward

	// Route-reply traffic.
	RREPSent      uint64 // generated as destination
	RREPForwarded uint64
	RREPReceived  uint64

	// Error and beacon traffic.
	RERRSent     uint64
	RERRReceived uint64
	HelloSent    uint64
	HelloHeard   uint64

	// Data-plane accounting.
	DataOriginated uint64
	DataForwarded  uint64
	DataDelivered  uint64

	// Losses by cause.
	DropNoRoute    uint64 // no route and discovery failed/buffer overflow
	DropTTL        uint64
	DropBufferFull uint64
	DropLinkFail   uint64
	DropCrashed    uint64 // originated or buffered at a crashed node

	// Discovery outcomes.
	DiscoveriesStarted   uint64
	DiscoveriesSucceeded uint64
	DiscoveriesFailed    uint64
}

// Fold reports every counter once, under its report name, to add — the
// one list of them the measurement harness reads (adding a counter is a
// field and a line here).
func (c *Counters) Fold(add func(name string, v uint64)) {
	add("routing/rreq-originated", c.RREQOriginated)
	add("routing/rreq-forwarded", c.RREQForwarded)
	add("routing/rreq-received", c.RREQReceived)
	add("routing/rreq-suppressed", c.RREQSuppressed)
	add("routing/rrep-sent", c.RREPSent)
	add("routing/rrep-forwarded", c.RREPForwarded)
	add("routing/rrep-received", c.RREPReceived)
	add("routing/rerr-sent", c.RERRSent)
	add("routing/rerr-received", c.RERRReceived)
	add("routing/hello-sent", c.HelloSent)
	add("routing/hello-heard", c.HelloHeard)
	add("routing/data-originated", c.DataOriginated)
	add("routing/data-forwarded", c.DataForwarded)
	add("routing/data-delivered", c.DataDelivered)
	add("routing/drop-no-route", c.DropNoRoute)
	add("routing/drop-ttl", c.DropTTL)
	add("routing/drop-buffer-full", c.DropBufferFull)
	add("routing/drop-link-fail", c.DropLinkFail)
	add("routing/drop-crashed", c.DropCrashed)
	add("routing/discoveries-started", c.DiscoveriesStarted)
	add("routing/discoveries-succeeded", c.DiscoveriesSucceeded)
	add("routing/discoveries-failed", c.DiscoveriesFailed)
}

// ControlPacketsSent returns the total routing-control transmissions this
// node submitted (the numerator of normalized routing overhead).
func (c *Counters) ControlPacketsSent() uint64 {
	return c.RREQOriginated + c.RREQForwarded +
		c.RREPSent + c.RREPForwarded + c.RERRSent + c.HelloSent
}
