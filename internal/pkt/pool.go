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
// application sink. Crash paths deliberately leak — a packet may still be
// on the air — the same correctness-over-thrift trade the MAC makes with
// its frames.
//
// Free lists are segregated by body shape so a recycled control packet
// keeps its co-allocated body (and a HELLO/RERR its piggyback slice
// capacity). All methods are nil-receiver safe and fall back to plain
// allocation, so tests and cold paths need no pool. A Pool is not safe
// for concurrent use; each node owns one (engines never share nodes
// across goroutines).
type Pool struct {
	data, rreq, rrep, rerr, hello recycle.List[*Packet]
	drops                         uint64

	// The audit-mode borrow ledger. lease is this arming's stamp (see
	// SetAudit), 0 (the default) while disarmed: Release then costs one
	// comparison, preserving the zero-overhead contract of audit-off runs.
	// A packet lent while armed carries the stamp in Packet.lease until it
	// comes back; lent counts such packets. (Each free list is a single
	// slice header, and two 4-byte fields keep a Pool at 144 bytes, its
	// allocation size class.)
	lease       uint32
	lent        int32
	doubleFrees uint64
}

// armings hands out ledger stamps: one per SetAudit(true) of any pool in
// the process, so a stamp names the pool and the arming that lent a
// packet. 0 is never a stamp; a stamp repeats only after 2^32 − 1
// armings.
var armings atomic.Uint32

// PoolCap bounds each free list; beyond it, released packets fall to the
// garbage collector so a burst can never pin its high-water memory.
const PoolCap = 512

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Drops reports how many released packets were dropped to the GC because
// their free list was full.
func (pl *Pool) Drops() uint64 {
	if pl == nil {
		return 0
	}
	return pl.drops
}

// ResetDrops zeroes the drop counter, so that Drops reports one run's
// drops on a pool kept warm across runs.
func (pl *Pool) ResetDrops() {
	if pl != nil {
		pl.drops = 0
	}
}

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

// tracked stamps p with the ledger's lease (none while disarmed, which
// also clears a lease Clone copied from its source) and counts it lent
// when auditing; every pool exit point (constructors and Clone) funnels
// through it.
func (pl *Pool) tracked(p *Packet) *Packet {
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
	return pl.data.Len() + pl.rreq.Len() + pl.rrep.Len() + pl.rerr.Len() + pl.hello.Len()
}

// Release returns a packet to its shape's free list. The caller must
// hold the only live reference.
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
	list := &pl.data
	switch {
	case p.RREQ != nil:
		list = &pl.rreq
	case p.RREP != nil:
		list = &pl.rrep
	case p.RERR != nil:
		list = &pl.rerr
	case p.Hello != nil:
		list = &pl.hello
	}
	if !list.Put(p, PoolCap) {
		pl.drops++
	}
}

// Data is the pooled NewData.
func (pl *Pool) Data(src, dst NodeID, payload, flow, seq int, now des.Time, ttl int) *Packet {
	if pl == nil {
		return NewData(src, dst, payload, flow, seq, now, ttl)
	}
	p, ok := pl.data.Get()
	if !ok {
		return pl.tracked(NewData(src, dst, payload, flow, seq, now, ttl))
	}
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

// RREQ is the pooled NewRREQ.
func (pl *Pool) RREQ(body RREQBody, now des.Time, ttl int) *Packet {
	if pl == nil {
		return NewRREQ(body, now, ttl)
	}
	p, ok := pl.rreq.Get()
	if !ok {
		return pl.tracked(NewRREQ(body, now, ttl))
	}
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

// RREP is the pooled NewRREP.
func (pl *Pool) RREP(src NodeID, body RREPBody, now des.Time, ttl int) *Packet {
	if pl == nil {
		return NewRREP(src, body, now, ttl)
	}
	p, ok := pl.rrep.Get()
	if !ok {
		return pl.tracked(NewRREP(src, body, now, ttl))
	}
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

// RERR is the pooled NewRERR; the unreachable list is copied into the
// body's retained storage (or, on a miss, by NewRERR), so the caller
// keeps its slice.
func (pl *Pool) RERR(src NodeID, unreachable []UnreachableDest, now des.Time) *Packet {
	if pl == nil {
		return NewRERR(src, unreachable, now)
	}
	p, ok := pl.rerr.Get()
	if !ok {
		return pl.tracked(NewRERR(src, unreachable, now))
	}
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

// Hello is the pooled NewHello; the piggybacked neighbour loads are
// copied into the body's retained storage (or, on a miss, by NewHello),
// so the caller keeps its slice.
func (pl *Pool) Hello(src NodeID, body HelloBody, now des.Time) *Packet {
	if pl == nil {
		return NewHello(src, body, now)
	}
	p, ok := pl.hello.Get()
	if !ok {
		return pl.tracked(NewHello(src, body, now))
	}
	b := p.Hello
	b.Load = body.Load
	b.NbrLoads = copyLoads(b.NbrLoads, body.NbrLoads)
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

// copyLoads copies a HELLO's piggybacked loads over a recycled body's
// storage. It keeps src's nil-ness, which receivers read: nil is a
// one-hop beacon, an empty table a two-hop beacon with no fresh
// neighbours (see routing.NeighborTable.Update), whatever body the pool
// happened to recycle.
func copyLoads(dst, src []NeighborLoad) []NeighborLoad {
	if src == nil {
		return nil
	}
	if dst == nil {
		dst = []NeighborLoad{}
	}
	return append(dst[:0], src...)
}

// Clone is the pooled Packet.Clone: same deep-copy semantics, recycled
// storage when a matching shape is free.
func (pl *Pool) Clone(p *Packet) *Packet {
	if pl == nil {
		return p.Clone()
	}
	switch {
	case p.RREQ != nil:
		q, ok := pl.rreq.Get()
		if !ok {
			return pl.tracked(p.Clone())
		}
		b := q.RREQ
		*b = *p.RREQ
		*q = *p
		q.RREQ = b
		return pl.tracked(q)
	case p.RREP != nil:
		q, ok := pl.rrep.Get()
		if !ok {
			return pl.tracked(p.Clone())
		}
		b := q.RREP
		*b = *p.RREP
		*q = *p
		q.RREP = b
		return pl.tracked(q)
	case p.RERR != nil:
		q, ok := pl.rerr.Get()
		if !ok {
			return pl.tracked(p.Clone())
		}
		b := q.RERR
		b.Unreachable = append(b.Unreachable[:0], p.RERR.Unreachable...)
		*q = *p
		q.RERR = b
		return pl.tracked(q)
	case p.Hello != nil:
		q, ok := pl.hello.Get()
		if !ok {
			return pl.tracked(p.Clone())
		}
		b := q.Hello
		b.Load = p.Hello.Load
		b.NbrLoads = copyLoads(b.NbrLoads, p.Hello.NbrLoads)
		*q = *p
		q.Hello = b
		return pl.tracked(q)
	default:
		q, ok := pl.data.Get()
		if !ok {
			return pl.tracked(p.Clone())
		}
		*q = *p
		return pl.tracked(q)
	}
}
