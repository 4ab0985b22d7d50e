package pkt

import (
	"sync/atomic"

	"clnlr/internal/des"
	"clnlr/internal/recycle"
)

// Pool recycles packets for one node stack. Packet churn is the
// simulator's dominant steady-state allocation once events and frames are
// pooled: every HELLO beacon, every per-hop RREQ/RREP clone and every
// data packet otherwise hits the garbage collector.
//
// Ownership discipline (what makes a free list safe without reference
// counts): a packet is only ever retained by the node that allocated it.
// Broadcast receivers borrow the sender's packet synchronously during
// radio delivery and clone (into their own pool) anything they keep;
// unicast payloads are cloned by the receiving MAC before they travel up
// the stack. Allocation and release therefore always happen on the same
// node, and the release points are exact: the routing layer gives a
// packet back when its MAC reports the transmission done (and the packet
// was not re-buffered), when it is dropped, or after delivering it to the
// application sink; a Crash or a warm Reset gives back what MAC and
// routing discard, except a payload still on the air, which the MAC
// releases when its airtime ends.
//
// The constructors (Data, RREQ, RREP, RERR, Hello) and Clone are the only
// way to build a packet. Free lists are segregated by body shape (indexed
// by Kind) so a recycled control packet keeps its co-allocated body (and
// a HELLO/RERR its piggyback slice capacity). A RERR's or HELLO's list
// storage is kept at least as large as any of its kind the pool has
// released (see Release), and each free list keeps every packet given
// back and room for every packet the pool made, so once a warm pool has
// met its longest lists and its busiest moment nothing in it grows again,
// however LIFO reuse deals long and short lists among the bodies. A nil
// *Pool is a valid pool that allocates every packet fresh and keeps
// nothing, so tests and cold paths need no pool. A Pool is not safe for
// concurrent use; each node owns one (engines never share nodes across
// goroutines).
type Pool struct {
	free [Hello + 1]recycle.List[*Packet]
	// rerrCap and helloCap are the largest RERR and HELLO list storage
	// released to the pool.
	rerrCap, helloCap int

	// The audit-mode borrow ledger. lease is this arming's stamp (see
	// SetAudit), 0 (the default) while disarmed: Release then costs one
	// comparison, preserving the zero-overhead contract of audit-off runs.
	// A packet lent while armed carries the stamp in Packet.lease until it
	// comes back; lent counts such packets.
	lease       uint32
	lent        int32
	doubleFrees uint64
}

// armings hands out ledger stamps: one per SetAudit(true) of any pool in
// the process, so a stamp names the pool and the arming that lent a
// packet. 0 is never a stamp; a stamp repeats only after 2^32 − 1
// armings.
var armings atomic.Uint32

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// SetAudit enables or disables the live-borrow ledger. Enabling starts a
// fresh ledger under a new stamp (and zeroes the double-free counter), so
// it must be called before the run hands out any packets: a packet lent
// under an earlier arming no longer counts as live. Disabling drops the
// ledger.
func (pl *Pool) SetAudit(on bool) {
	if pl == nil {
		return
	}
	pl.lent = 0
	if !on {
		pl.lease = 0
		return
	}
	pl.lease = armings.Add(1)
	if pl.lease == 0 {
		pl.lease = armings.Add(1)
	}
	pl.doubleFrees = 0
}

// LiveBorrowed reports how many packets are currently borrowed from the
// pool and not yet released. Zero (and meaningless) unless auditing.
func (pl *Pool) LiveBorrowed() int {
	if pl == nil {
		return 0
	}
	return int(pl.lent)
}

// DoubleFrees reports how many Release calls named a packet that was not
// live — a double free or a release through the wrong pool. Only counted
// while auditing.
func (pl *Pool) DoubleFrees() uint64 {
	if pl == nil {
		return 0
	}
	return pl.doubleFrees
}

// tracked stamps p with the ledger's lease (none while disarmed or with
// no pool, which also clears a lease Clone copied from its source) and
// counts it lent when auditing; every pool exit point (constructors and
// Clone) funnels through it.
func (pl *Pool) tracked(p *Packet) *Packet {
	if pl == nil {
		p.lease = 0
		return p
	}
	p.lease = pl.lease
	if pl.lease != 0 {
		pl.lent++
	}
	return p
}

// Len reports the total number of packets currently pooled.
func (pl *Pool) Len() int {
	if pl == nil {
		return 0
	}
	n := 0
	for i := range pl.free {
		n += pl.free[i].Len()
	}
	return n
}

// Release returns a packet to its shape's free list. The caller must
// hold the only live reference. A RERR's or HELLO's list storage smaller
// than the largest of its kind released before is regrown to it here;
// a larger one raises that size and regrows every body on the kind's
// free list. So each body grows at most once per new largest list, and
// a warm engine's second pass over the same runs grows none.
func (pl *Pool) Release(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if pl.lease != 0 {
		if p.lease != pl.lease {
			// Double free (or a foreign packet, or one lent under an
			// earlier arming): pooling it again could hand the same
			// pointer out twice, so count and refuse.
			pl.doubleFrees++
			return
		}
		p.lease = 0
		pl.lent--
	}
	k := Data
	switch {
	case p.RREQ != nil:
		k = RREQ
	case p.RREP != nil:
		k = RREP
	case p.RERR != nil:
		k = RERR
	case p.Hello != nil:
		k = Hello
	}
	if k == RERR || k == Hello {
		if c := listCap(p); c > *pl.largest(k) {
			*pl.largest(k) = c
			pl.free[k].Each(pl.fit)
		}
	}
	pl.free[k].Put(p)
	pl.fit(p)
}

// largest returns the largest list storage of kind k (RERR or Hello)
// released to the pool.
func (pl *Pool) largest(k Kind) *int {
	if k == RERR {
		return &pl.rerrCap
	}
	return &pl.helloCap
}

// listCap returns the capacity of a RERR's or HELLO's list storage (a
// HELLO keeps it in NbrLoads or, after a one-hop beacon, in spare).
func listCap(p *Packet) int {
	if p.RERR != nil {
		return cap(p.RERR.Unreachable)
	}
	return max(cap(p.Hello.NbrLoads), cap(p.Hello.spare))
}

// fit gives a RERR's or HELLO's body new list storage of the largest size
// released to the pool when it has less.
func (pl *Pool) fit(p *Packet) {
	switch {
	case p.RERR != nil && cap(p.RERR.Unreachable) < pl.rerrCap:
		p.RERR.Unreachable = make([]UnreachableDest, 0, pl.rerrCap)
	case p.Hello != nil && listCap(p) < pl.helloCap:
		p.Hello.NbrLoads, p.Hello.spare = nil, make([]NeighborLoad, 0, pl.helloCap)
	}
}

// get supplies the storage every constructor and Clone fills in: a
// recycled packet of shape k (its body, and a RERR's or HELLO's slice
// capacity, kept), or — on a miss or with no pool — a fresh packet whose
// body is allocated in the same object, its list storage (with a pool) of
// the largest size released so far.
func (pl *Pool) get(k Kind) *Packet {
	if pl != nil {
		if p, ok := pl.free[k].Get(); ok {
			return p
		}
		pl.free[k].Made()
	}
	switch k {
	case RREQ:
		c := new(struct {
			p Packet
			b RREQBody
		})
		c.p.RREQ = &c.b
		return &c.p
	case RREP:
		c := new(struct {
			p Packet
			b RREPBody
		})
		c.p.RREP = &c.b
		return &c.p
	case RERR:
		c := new(struct {
			p Packet
			b RERRBody
		})
		c.p.RERR = &c.b
		if pl != nil {
			pl.fit(&c.p)
		}
		return &c.p
	case Hello:
		c := new(struct {
			p Packet
			b HelloBody
		})
		c.p.Hello = &c.b
		if pl != nil {
			pl.fit(&c.p)
		}
		return &c.p
	}
	return new(Packet)
}

// Data builds a data packet of payload bytes (IP+UDP headers added).
func (pl *Pool) Data(src, dst NodeID, payload, flow, seq int, now des.Time, ttl int) *Packet {
	p := pl.get(Data)
	*p = Packet{
		Kind:      Data,
		Src:       src,
		Dst:       dst,
		TTL:       ttl,
		Bytes:     payload + IPHeaderBytes + UDPHeaderBytes,
		CreatedAt: now,
		FlowID:    flow,
		Seq:       seq,
	}
	return pl.tracked(p)
}

// RREQ builds a route-request packet.
func (pl *Pool) RREQ(body RREQBody, now des.Time, ttl int) *Packet {
	p := pl.get(RREQ)
	b := p.RREQ
	*b = body
	*p = Packet{
		Kind:      RREQ,
		Src:       body.Origin,
		Dst:       Broadcast,
		TTL:       ttl,
		Bytes:     RREQBytes,
		CreatedAt: now,
		RREQ:      b,
	}
	return pl.tracked(p)
}

// RREP builds a route-reply packet travelling from src toward the RREQ
// origin.
func (pl *Pool) RREP(src NodeID, body RREPBody, now des.Time, ttl int) *Packet {
	p := pl.get(RREP)
	b := p.RREP
	*b = body
	*p = Packet{
		Kind:      RREP,
		Src:       src,
		Dst:       body.Origin,
		TTL:       ttl,
		Bytes:     RREPBytes,
		CreatedAt: now,
		RREP:      b,
	}
	return pl.tracked(p)
}

// RERR builds a route-error packet (link-local broadcast). Like Hello it
// copies the caller's slice into the body's own storage: a caller may
// build the list in scratch storage it reuses.
func (pl *Pool) RERR(src NodeID, unreachable []UnreachableDest, now des.Time) *Packet {
	p := pl.get(RERR)
	b := p.RERR
	b.Unreachable = append(b.Unreachable[:0], unreachable...)
	*p = Packet{
		Kind:      RERR,
		Src:       src,
		Dst:       Broadcast,
		TTL:       1,
		Bytes:     RERRBaseBytes + RERRPerDestBytes*len(unreachable),
		CreatedAt: now,
		RERR:      b,
	}
	return pl.tracked(p)
}

// Hello builds a HELLO beacon (never forwarded). The piggybacked loads
// are copied into the body's own storage, nil staying nil (a one-hop
// beacon), so the caller keeps its slice.
func (pl *Pool) Hello(src NodeID, body HelloBody, now des.Time) *Packet {
	p := pl.get(Hello)
	b := p.Hello
	b.Load = body.Load
	b.setLoads(body.NbrLoads)
	*p = Packet{
		Kind:      Hello,
		Src:       src,
		Dst:       Broadcast,
		TTL:       1,
		Bytes:     HelloBaseBytes + HelloPerNbrBytes*len(body.NbrLoads),
		CreatedAt: now,
		Hello:     b,
	}
	return pl.tracked(p)
}

// setLoads copies a HELLO's piggybacked loads over the body's storage.
// It keeps src's nil-ness, which receivers read: nil is a one-hop beacon,
// an empty table a two-hop beacon with no fresh neighbours (see
// routing.NeighborTable.Update), whatever body the pool happened to
// recycle. A one-hop beacon parks the storage in spare instead of
// dropping it, so a warm engine that alternates one-hop and two-hop
// schemes reuses every table.
func (b *HelloBody) setLoads(src []NeighborLoad) {
	buf := b.NbrLoads
	if buf == nil {
		buf = b.spare
	}
	if src == nil {
		b.NbrLoads, b.spare = nil, buf[:0]
		return
	}
	if buf == nil {
		buf = []NeighborLoad{}
	}
	b.NbrLoads, b.spare = append(buf[:0], src...), nil
}

// Clone returns a deep copy of p. Forwarding nodes clone before mutating
// per-hop fields (TTL, hop count, cost) so receivers of the same
// broadcast frame observe identical contents. The copy carries no lease
// of p's: it is on loan from pl, if from anyone.
func (pl *Pool) Clone(p *Packet) *Packet {
	var q *Packet
	switch {
	case p.RREQ != nil:
		q = pl.get(RREQ)
		b := q.RREQ
		*b = *p.RREQ
		*q = *p
		q.RREQ = b
	case p.RREP != nil:
		q = pl.get(RREP)
		b := q.RREP
		*b = *p.RREP
		*q = *p
		q.RREP = b
	case p.RERR != nil:
		q = pl.get(RERR)
		b := q.RERR
		b.Unreachable = append(b.Unreachable[:0], p.RERR.Unreachable...)
		*q = *p
		q.RERR = b
	case p.Hello != nil:
		q = pl.get(Hello)
		b := q.Hello
		b.Load = p.Hello.Load
		b.setLoads(p.Hello.NbrLoads)
		*q = *p
		q.Hello = b
	default:
		q = pl.get(Data)
		*q = *p
	}
	return pl.tracked(q)
}
