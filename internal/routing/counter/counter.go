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
	"clnlr/internal/recycle"
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

// floodKey names one flood as one node assesses it.
type floodKey struct {
	node   pkt.NodeID
	origin pkt.NodeID
	id     uint32
}

// Hash implements recycle.Key.
func (k floodKey) Hash() uint64 {
	return uint64(uint16(k.node))<<48 ^ uint64(uint32(k.origin))<<32 ^ uint64(k.id)
}

// assessment is one in-progress RAD, a slot of Policy.slots.
type assessment struct {
	key   floodKey
	count int
	core  *routing.Core // the assessing node's
	p     *pkt.Packet   // the retained clone; nil in a free slot
}

// Policy implements the counter rule. One instance serves every node of
// a network for one run: an assessment is keyed by the assessing node as
// well as the flood and carries that node's core. Assessments live in a
// slab; pending finds a node's assessment of a flood, and each RAD is a
// typed event carrying its slot index, so assessing a flood allocates
// nothing once the slab has grown.
type Policy struct {
	params  Params
	pending recycle.Index[floodKey, uint32]
	slots   recycle.Slab[assessment]
}

// OnRREQ implements routing.RREQPolicy.
func (p *Policy) OnRREQ(c *routing.Core, pk *pkt.Packet, from pkt.NodeID, first bool) {
	k := floodKey{c.Env.ID, pk.RREQ.Origin, pk.RREQ.ID}
	if !first {
		if i, ok := p.pending.Get(k); ok {
			p.slots.At(i).count++
		}
		return
	}
	// pk is only borrowed for the duration of this call (the sender's
	// pool reclaims it after transmission), so the assessment keeps its
	// own clone across the RAD and releases it once resolved.
	i := p.slots.Add(assessment{key: k, count: 1, core: c, p: c.Env.Pool.Clone(pk)})
	p.pending.Put(k, i)
	rad := des.Time(c.Env.Rng.Intn(int(p.params.RADMax) + 1))
	c.Env.Sim.ScheduleCall(rad, p, 0, i)
}

// HandleEvent implements des.Handler: the RAD of the assessment in slot
// i expires. Its flood's key is deleted even when a later first copy of
// the same flood at the same node (possible after a crash wiped the
// duplicate cache) has taken it over; from then on neither assessment
// counts duplicates.
func (p *Policy) HandleEvent(_ int32, i uint32) {
	a := p.slots.Take(i)
	p.pending.Delete(a.key)
	c := a.core
	if a.count < p.params.C {
		c.ForwardRREQ(a.p, 0)
	} else {
		c.SuppressRREQ()
	}
	c.Env.Pool.Release(a.p)
}

// CostIncrement implements routing.RREQPolicy: hop count.
func (p *Policy) CostIncrement(*routing.Core) float64 { return 1 }

// HeldPackets implements routing.RREQPolicy: one retained clone per
// assessment c has in progress.
func (p *Policy) HeldPackets(c *routing.Core) int {
	n := 0
	for i := 0; i < p.slots.Len(); i++ {
		if a := p.slots.At(uint32(i)); a.p != nil && a.core == c {
			n++
		}
	}
	return n
}

// ReleaseHeld implements routing.RREQPolicy: c's assessments are
// dropped unresolved and their clones go back to c's pool. Once no node
// has one left — every node of a network kept across a warm reset has
// been released — the slab hands out indices from 0 again, as a new
// policy's would, keeping its storage.
func (p *Policy) ReleaseHeld(c *routing.Core) {
	for i := 0; i < p.slots.Len(); i++ {
		if a := p.slots.At(uint32(i)); a.p != nil && a.core == c {
			a := p.slots.Take(uint32(i))
			if j, ok := p.pending.Get(a.key); ok && j == uint32(i) {
				p.pending.Delete(a.key)
			}
			c.Env.Pool.Release(a.p)
		}
	}
	if p.slots.Live() == 0 {
		p.slots.Reset()
	}
}

// Spec returns the scheme's effective configuration and policy
// constructor, from which networks are built and warm ones reset. The
// policy carries the run's assessments; a warm reset that keeps it
// empties it (ReleaseHeld), so its index and slab keep their storage.
func Spec(cfg routing.Config, params Params) routing.Spec {
	cfg.ReplyWindow = 0
	return routing.Spec{Cfg: cfg, Policy: func() routing.RREQPolicy {
		return &Policy{params: params}
	}}
}

var _ routing.RREQPolicy = (*Policy)(nil)
