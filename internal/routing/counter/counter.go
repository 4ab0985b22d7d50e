// Package counter provides the counter-based broadcast-suppression
// baseline (Ni et al.'s broadcast-storm countermeasure, as used in the
// authors' MANET papers): on the first copy of a flood a node starts a
// random assessment delay (RAD) and counts further copies it overhears;
// when the RAD expires it rebroadcasts only if it heard fewer than C
// copies — many copies imply the neighbourhood is already covered.
package counter

import (
	"fmt"
	"math"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
	"clnlr/internal/routing"
)

// Params tune the counter-based scheme.
type Params struct {
	// C is the counter threshold: rebroadcast only if fewer than C copies
	// were heard by the end of the assessment delay.
	C int
	// RADMax is the upper bound of the uniform random assessment delay.
	RADMax des.Time
}

// DefaultParams returns the classic C=3 threshold with a 10 ms RAD.
func DefaultParams() Params {
	return Params{C: 3, RADMax: 10 * des.Millisecond}
}

// Validate checks that a RAD can be drawn from [0, RADMax].
func Validate(p Params) error {
	if p.RADMax < 0 || p.RADMax == math.MaxInt64 {
		return fmt.Errorf("counter: RADMax %v outside [0, MaxInt64)", p.RADMax)
	}
	return nil
}

type floodKey struct {
	origin pkt.NodeID
	id     uint32
}

// assessment is one in-progress RAD, a slot of Policy.slots.
type assessment struct {
	key   floodKey
	count int
	p     *pkt.Packet // the retained clone; nil in a free slot
}

// Policy implements the counter rule. One instance per node, bound to
// that node's core by its first OnRREQ. Assessments live in a slab whose
// free slots are recycled; pending finds a flood's slot, and each RAD is
// a typed event carrying its slot index, so assessing a flood allocates
// nothing once the slab has grown.
type Policy struct {
	params  Params
	core    *routing.Core
	pending map[floodKey]int32
	slots   []assessment
	free    []int32
}

// OnRREQ implements routing.RREQPolicy.
func (p *Policy) OnRREQ(c *routing.Core, pk *pkt.Packet, from pkt.NodeID, first bool) {
	k := floodKey{pk.RREQ.Origin, pk.RREQ.ID}
	if !first {
		if i, ok := p.pending[k]; ok {
			p.slots[i].count++
		}
		return
	}
	p.core = c
	// pk is only borrowed for the duration of this call (the sender's
	// pool reclaims it after transmission), so the assessment keeps its
	// own clone across the RAD and releases it once resolved.
	a := assessment{key: k, count: 1, p: c.Env.Pool.Clone(pk)}
	var i int32
	if n := len(p.free); n > 0 {
		i = p.free[n-1]
		p.free = p.free[:n-1]
		p.slots[i] = a
	} else {
		i = int32(len(p.slots))
		p.slots = append(p.slots, a)
	}
	p.pending[k] = i
	rad := des.Time(c.Env.Rng.Intn(int(p.params.RADMax) + 1))
	c.Env.Sim.ScheduleCall(rad, p, 0, uint32(i))
}

// HandleEvent implements des.Handler: the RAD of the assessment in slot
// i expires. Its flood's key is deleted even when a later first copy of
// the same flood (possible after a crash wiped the duplicate cache) has
// taken it over; from then on neither assessment counts duplicates.
func (p *Policy) HandleEvent(_ int32, i uint32) {
	a := p.slots[i]
	p.slots[i] = assessment{}
	p.free = append(p.free, int32(i))
	delete(p.pending, a.key)
	c := p.core
	if a.count < p.params.C {
		c.ForwardRREQ(a.p, 0)
	} else {
		c.SuppressRREQ()
	}
	c.Env.Pool.Release(a.p)
}

// CostIncrement implements routing.RREQPolicy: hop count.
func (p *Policy) CostIncrement(*routing.Core) float64 { return 1 }

// HeldPackets implements routing.PacketHolder: one retained clone per
// in-progress assessment.
func (p *Policy) HeldPackets() int { return len(p.slots) - len(p.free) }

// Spec returns the scheme's effective configuration and per-run policy
// constructor, from which networks are built and warm ones reset. The
// policy carries mutable per-flood assessment state, so a warm reset
// must build a fresh one every run — exactly what the Policy closure
// provides.
func Spec(cfg routing.Config, params Params) routing.Spec {
	cfg.ReplyWindow = 0
	return routing.Spec{Cfg: cfg, Policy: func() routing.RREQPolicy {
		return &Policy{
			params:  params,
			pending: make(map[floodKey]int32),
		}
	}}
}

var _ routing.RREQPolicy = (*Policy)(nil)
