// Package core implements CLNLR — Cross-Layer Neighbourhood Load Routing
// for wireless mesh networks (Zhao, Al-Dubai & Min, 2010), the primary
// contribution reproduced by this repository.
//
// CLNLR couples three mechanisms:
//
//  1. Cross-layer load measurement. Each mesh router reads its MAC layer's
//     smoothed interface-queue occupancy and channel busy fraction
//     (mac.LoadStats) and combines them into a local load L ∈ [0,1].
//
//  2. Neighbourhood load dissemination. Periodic HELLO beacons piggyback
//     L; optionally (two-hop mode) they also relay the sender's 1-hop
//     load table. Every node thus maintains a smoothed *neighbourhood
//     load* NL ∈ [0,1] — the mean load of its radio vicinity.
//
//  3. Load- and density-adaptive route discovery. An intermediate node
//     rebroadcasts the first copy of an RREQ with probability
//
//     p = clamp(PMin, PMax, PBase · (1−NL)^Gamma · dens(n))
//
//     where dens(n) = min(DensCap, sqrt(DegRef/n)) raises p in sparse
//     neighbourhoods (n = fresh-neighbour count) so reachability is
//     preserved; loaded neighbourhoods suppress RREQs, both cutting
//     broadcast-storm overhead and steering discovery around hotspots.
//     RREQs accumulate a path cost Σ(1 + Beta·NL_i); the destination
//     collects copies for a short window and replies to the minimum-cost
//     one, so the installed route avoids loaded regions even when a
//     congested path would have delivered the first RREQ copy.
package core

import (
	"fmt"
	"math"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
	"clnlr/internal/routing"
)

// Params are the CLNLR knobs. The defaults are the operating point used
// throughout the reproduction (see DESIGN.md §4; F-R8 sweeps them).
type Params struct {
	// PMin and PMax clamp the adaptive rebroadcast probability; PBase is
	// its unloaded, reference-density value.
	PMin, PMax, PBase float64
	// Gamma is the load-sensitivity exponent of (1−NL)^Gamma.
	Gamma float64
	// Beta weights neighbourhood load in the accumulated path cost
	// 1 + Beta·NL per forwarding hop.
	Beta float64
	// RetryBoost is added to the forwarding probability per discovery
	// retry (graded escalation): suppression may delay a discovery but
	// each re-flood penetrates further, without collapsing to a full
	// flood that would negate the overhead savings under overload.
	RetryBoost float64
	// TwoHop selects the two-hop neighbourhood view (HELLOs piggyback
	// neighbour load tables).
	TwoHop bool
	// DegRef is the reference neighbour count of the density term;
	// DensCap bounds the sparse-network boost.
	DegRef  int
	DensCap float64
	// ReplyWindow is how long the destination collects RREQ copies
	// before replying to the minimum-cost one.
	ReplyWindow des.Time
	// HelloInterval is the load-beacon period.
	HelloInterval des.Time
}

// DefaultParams returns the standard CLNLR operating point.
func DefaultParams() Params {
	return Params{
		PMin:          0.5,
		PMax:          1.0,
		PBase:         0.9,
		Gamma:         1.5,
		Beta:          2.0,
		RetryBoost:    0.25,
		TwoHop:        false,
		DegRef:        6,
		DensCap:       1.6,
		ReplyWindow:   20 * des.Millisecond,
		HelloInterval: des.Second,
	}
}

// DensityOnly returns the load-blind point of the forwarding rule, the
// gossip-adaptive scheme: Gamma 0 and Beta 0 switch the load term off in
// p and in the path cost, RetryBoost 0 and ReplyWindow 0 leave plain
// first-RREQ-wins discovery, and what remains is density-adaptive gossip,
// p = clamp(0.4, 1, 0.7·dens(n)). HELLOs still run, every helloInterval,
// so dens(n) has neighbour counts to read.
func DensityOnly(helloInterval des.Time) Params {
	return Params{PMin: 0.4, PMax: 1, PBase: 0.7, DegRef: 6, DensCap: 1.6, HelloInterval: helloInterval}
}

// Policy implements routing.RREQPolicy with the CLNLR forwarding rule.
// The rule is a pure function of the forwarding node's neighbourhood
// load and degree, read through the Core it is called with, so the
// policy holds only its parameters and one instance serves every node of
// a network.
type Policy struct {
	routing.HoldsNothing
	params Params
}

// ForwardProbability computes the adaptive rebroadcast probability from a
// neighbourhood load and a fresh-neighbour count. Exposed (rather than
// inlined in OnRREQ) so tests and ablation benchmarks can probe the
// response surface directly.
func (p *Policy) ForwardProbability(nl float64, neighbors int) float64 {
	if nl < 0 {
		nl = 0
	} else if nl > 1 {
		nl = 1
	}
	prob := p.params.PBase * math.Pow(1-nl, p.params.Gamma) * p.density(neighbors)
	if prob < p.params.PMin {
		prob = p.params.PMin
	}
	if prob > p.params.PMax {
		prob = p.params.PMax
	}
	return prob
}

// density returns the sparse-neighbourhood boost dens(n).
func (p *Policy) density(neighbors int) float64 {
	if neighbors <= 0 {
		// No HELLO information yet (cold start) or an isolated node:
		// err on the side of reachability.
		return p.params.DensCap
	}
	d := math.Sqrt(float64(p.params.DegRef) / float64(neighbors))
	if d > p.params.DensCap {
		d = p.params.DensCap
	}
	return d
}

// OnRREQ implements routing.RREQPolicy.
func (p *Policy) OnRREQ(c *routing.Core, pk *pkt.Packet, from pkt.NodeID, first bool) {
	if !first {
		return
	}
	nl := c.NeighborhoodLoad(p.params.TwoHop)
	neighbors := c.Neighbors().Count()
	prob := p.ForwardProbability(nl, neighbors)
	// Graded retry escalation: each failed attempt raises the forwarding
	// probability so suppression can delay but not strand a discovery.
	if pk.RREQ.Attempt > 0 {
		prob += float64(pk.RREQ.Attempt) * p.params.RetryBoost
		if prob > p.params.PMax {
			prob = p.params.PMax
		}
	}
	// BoolDraw consumes exactly what Bool would, so capturing the draw for
	// provenance cannot perturb the stream (and runs even when no recorder
	// is installed, keeping instrumented and plain runs bit-identical).
	ok, draw := c.Env.Rng.BoolDraw(prob)
	if j := c.Env.Journey; j != nil {
		j.OnRREQDecision(c.Env.Sim.Now(), c.Env.ID, pk.RREQ.Origin, pk.RREQ.ID,
			int(pk.RREQ.Attempt), nl, neighbors, prob, draw, ok)
	}
	if ok {
		c.ForwardRREQ(pk, 0)
		return
	}
	c.SuppressRREQ()
}

// CostIncrement implements routing.RREQPolicy: traversing this node costs
// one hop inflated by its neighbourhood load.
func (p *Policy) CostIncrement(c *routing.Core) float64 {
	return 1 + p.params.Beta*c.NeighborhoodLoad(p.params.TwoHop)
}

// Spec returns the routing.Spec of CLNLR at params: the shared
// configuration with CLNLR's cross-layer requirements applied (HELLO
// beacons on at params.HelloInterval, two-hop tables if params.TwoHop,
// the reply window) and one Policy per network. It panics on params
// that Validate rejects.
func Spec(cfg routing.Config, params Params) routing.Spec {
	if err := Validate(params); err != nil {
		panic(err)
	}
	cfg.HelloEnabled = true
	cfg.HelloInterval = params.HelloInterval
	cfg.TwoHopHello = params.TwoHop
	cfg.ReplyWindow = params.ReplyWindow
	return routing.Spec{Cfg: cfg, Policy: func() routing.RREQPolicy { return &Policy{params: params} }}
}

// Validate checks parameter sanity.
func Validate(p Params) error {
	switch {
	case p.PMin < 0 || p.PMin > 1:
		return fmt.Errorf("clnlr: PMin %v outside [0,1]", p.PMin)
	case p.PMax < p.PMin || p.PMax > 1:
		return fmt.Errorf("clnlr: PMax %v outside [PMin,1]", p.PMax)
	case p.PBase <= 0:
		return fmt.Errorf("clnlr: PBase %v must be positive", p.PBase)
	case p.Gamma < 0:
		return fmt.Errorf("clnlr: Gamma %v must be non-negative", p.Gamma)
	case p.Beta < 0:
		return fmt.Errorf("clnlr: Beta %v must be non-negative", p.Beta)
	case p.RetryBoost < 0:
		return fmt.Errorf("clnlr: RetryBoost %v must be non-negative", p.RetryBoost)
	case p.DegRef <= 0:
		return fmt.Errorf("clnlr: DegRef %d must be positive", p.DegRef)
	case p.DensCap < 1:
		return fmt.Errorf("clnlr: DensCap %v must be at least 1", p.DensCap)
	case p.ReplyWindow < 0:
		return fmt.Errorf("clnlr: ReplyWindow %v must be non-negative", p.ReplyWindow)
	case p.HelloInterval <= 0:
		return fmt.Errorf("clnlr: HelloInterval %v must be positive", p.HelloInterval)
	}
	return nil
}

var _ routing.RREQPolicy = (*Policy)(nil)
