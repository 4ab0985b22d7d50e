// Package aodv provides the plain-AODV baseline: blind flooding of RREQs
// (every node rebroadcasts the first copy of each flood) and
// first-RREQ-wins replies. It is the reference point every probabilistic
// scheme is measured against.
package aodv

import (
	"clnlr/internal/pkt"
	"clnlr/internal/routing"
)

// Policy implements blind flooding.
type Policy struct{ routing.HoldsNothing }

// OnRREQ implements routing.RREQPolicy: rebroadcast first copies, drop
// duplicates.
func (Policy) OnRREQ(c *routing.Core, p *pkt.Packet, from pkt.NodeID, first bool) {
	if first {
		c.ForwardRREQ(p, 0)
	}
}

// CostIncrement implements routing.RREQPolicy: hop count.
func (Policy) CostIncrement(*routing.Core) float64 { return 1 }

// Spec returns the scheme's effective configuration and policy
// constructor, from which networks are built and warm ones reset.
func Spec(cfg routing.Config) routing.Spec {
	cfg.ReplyWindow = 0
	return routing.Spec{Cfg: cfg, Policy: func() routing.RREQPolicy { return Policy{} }}
}

var _ routing.RREQPolicy = Policy{}
