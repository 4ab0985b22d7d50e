// Package gossip provides the fixed-probability RREQ forwarding baseline
// (GOSSIP1(p,k) of Haas, Halpern & Li): each node rebroadcasts the first
// copy of a flood with probability P, except within the first K hops where
// forwarding is certain so the flood reliably leaves the origin's
// vicinity. The density-adaptive variant, the gossip-adaptive scheme, is
// CLNLR's own rule with its load terms off: core.DensityOnly.
package gossip

import (
	"clnlr/internal/pkt"
	"clnlr/internal/routing"
)

// Params tune the gossip baseline.
type Params struct {
	// P is the rebroadcast probability.
	P float64
	// K is the hop radius within which forwarding is unconditional.
	K int
}

// DefaultParams returns the literature-standard GOSSIP1(0.7, 1).
func DefaultParams() Params { return Params{P: 0.7, K: 1} }

// Policy implements the gossip forwarding rule. It holds only its
// parameters, so one instance serves every node of a network (each draw
// comes from the node's private random stream via the Core).
type Policy struct {
	routing.HoldsNothing
	params Params
}

// OnRREQ implements routing.RREQPolicy.
func (p *Policy) OnRREQ(c *routing.Core, pk *pkt.Packet, from pkt.NodeID, first bool) {
	if !first {
		return
	}
	if pk.RREQ.HopCount < p.params.K || c.Env.Rng.Bool(p.params.P) {
		c.ForwardRREQ(pk, 0)
		return
	}
	c.SuppressRREQ()
}

// CostIncrement implements routing.RREQPolicy: hop count.
func (p *Policy) CostIncrement(*routing.Core) float64 { return 1 }

// Spec returns the scheme's effective configuration and policy
// constructor, from which networks are built and warm ones reset.
func Spec(cfg routing.Config, params Params) routing.Spec {
	cfg.ReplyWindow = 0
	return routing.Spec{Cfg: cfg, Policy: func() routing.RREQPolicy { return &Policy{params: params} }}
}

var _ routing.RREQPolicy = (*Policy)(nil)
