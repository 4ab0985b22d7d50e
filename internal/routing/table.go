package routing

import (
	"clnlr/internal/des"
	"clnlr/internal/pkt"
)

// Route is one routing-table entry.
type Route struct {
	Dst      pkt.NodeID
	NextHop  pkt.NodeID
	HopCount int
	// Cost is the load-aware path cost (equals HopCount for load-blind
	// schemes).
	Cost float64
	// Seq is the destination sequence number; SeqValid is false for
	// entries learned without one.
	Seq      uint32
	SeqValid bool
	Expires  des.Time
	Valid    bool
}

// Table is a per-node routing table with AODV freshness semantics. Node
// IDs are dense (0..N-1), so lookup is one load from idx, a 4-byte index
// by destination ID; what it indexes is a slab holding only the
// destinations this node has installed, in order of first installation.
// Iteration in destination order comes from walking idx.
//
// Get, Invalidate and Each hand out copies and Lookup's pointer is for
// reading, so every write goes through a method here. Each write that
// changes a route structurally — install, replace, lazy expiry,
// Invalidate, InvalidateVia, InvalidateFrom, Reset — bumps Writes.
// Extending the lifetime of a live route (Refresh, Update's refresh
// branch) does not: it cannot make a route appear, move its next hop or
// revive it, which is all the runtime auditor's route checks can see.
type Table struct {
	sim     *des.Sim
	idx     []int32 // idx[dst] = position in entries + 1; 0 = never installed
	entries []Route
	writes  uint64
}

// NewTable returns an empty table bound to the simulation clock.
func NewTable(sim *des.Sim) *Table {
	return &Table{sim: sim}
}

// Reset empties the table in place, keeping the index and the slab's
// storage for warm replication reuse. It touches only the destinations
// that were installed.
func (t *Table) Reset() {
	for i := range t.entries {
		t.idx[t.entries[i].Dst] = 0
	}
	t.entries = t.entries[:0]
	t.writes++
}

// Writes counts the table's structural writes (see Table). The auditor
// re-checks a table only when this has moved since its last audit point.
func (t *Table) Writes() uint64 { return t.writes }

// growIndex returns a dense ID index extended with zeros ("absent") to
// cover ID i. Table, DupCache and NeighborTable share the idiom: the index
// costs 4 bytes per node of the network, the slab behind it only holds the
// IDs this node has met.
func growIndex(idx []int32, i int) []int32 {
	if i < len(idx) {
		return idx
	}
	return append(idx, make([]int32, i+1-len(idx))...)
}

// slot returns the entry for dst, or nil when dst was never installed
// (or is not a unicast ID).
func (t *Table) slot(dst pkt.NodeID) *Route {
	if dst < 0 || int(dst) >= len(t.idx) || t.idx[dst] == 0 {
		return nil
	}
	return &t.entries[t.idx[dst]-1]
}

// expire lazily finalises an entry whose lifetime has passed: the route
// becomes unusable and, per AODV, its stored sequence number is bumped —
// exactly as Invalidate does — so an in-flight advertisement derived from
// the expired route (same seq) can no longer re-install it.
func (t *Table) expire(r *Route) {
	if r.Valid && r.Expires <= t.sim.Now() {
		t.kill(r)
	}
}

// kill marks r unusable and bumps its sequence number, as expiry and
// Invalidate do.
func (t *Table) kill(r *Route) {
	r.Valid = false
	if r.SeqValid {
		r.Seq++
	}
	t.writes++
}

// Lookup returns the valid, unexpired route to dst, or nil. The pointer
// aliases the slab until the next Update and is for reading only: a write
// through it would bypass Writes.
func (t *Table) Lookup(dst pkt.NodeID) *Route {
	r := t.slot(dst)
	if r == nil {
		return nil
	}
	t.expire(r)
	if !r.Valid {
		return nil
	}
	return r
}

// Get returns the entry for dst even if invalid or expired (for sequence
// number bookkeeping); ok is false if none was ever installed.
func (t *Table) Get(dst pkt.NodeID) (r Route, ok bool) {
	if p := t.slot(dst); p != nil {
		return *p, true
	}
	return Route{}, false
}

// Update installs cand if it is fresher or better than the current entry,
// per AODV rules: a newer destination sequence number always wins; an
// equal sequence number wins on lower cost, then lower hop count; an entry
// without sequence information never displaces one with it, but refreshes
// an invalid entry. Returns true if the table changed.
func (t *Table) Update(cand Route) bool {
	if cand.Dst < 0 {
		return false
	}
	cur := t.slot(cand.Dst)
	if cur == nil {
		t.idx = growIndex(t.idx, int(cand.Dst))
		t.entries = append(t.entries, cand)
		t.idx[cand.Dst] = int32(len(t.entries))
		t.writes++
		return true
	}
	t.expire(cur)
	if t.better(cand, cur) {
		// Preserve the highest sequence number ever seen.
		if cur.SeqValid && !cand.SeqValid {
			cand.Seq, cand.SeqValid = cur.Seq, true
		}
		*cur = cand
		t.writes++
		return true
	}
	// Refresh lifetime of an identical route.
	if cur.Valid && cand.Valid && cur.NextHop == cand.NextHop && cand.Expires > cur.Expires {
		cur.Expires = cand.Expires
		return true
	}
	return false
}

// better reports whether cand should replace cur. The caller has already
// run expire(cur), so a dead entry's stored Seq is the bumped one.
func (t *Table) better(cand Route, cur *Route) bool {
	// Freshness first — even a dead entry remembers the newest sequence
	// number seen (bumped on expiry and invalidation), and a staler
	// advertisement must never displace that knowledge. Short-circuiting
	// on !cur.Valid here is exactly how a control packet that outlives
	// the route it advertised (seconds in a congested MAC queue) used to
	// re-install it and form a persistent two-node loop, caught by the
	// runtime auditor's routing/loop invariant.
	switch {
	case cand.SeqValid && cur.SeqValid:
		if pkt.SeqNewer(cand.Seq, cur.Seq) {
			return true
		}
		if cand.Seq != cur.Seq {
			return false
		}
	case !cand.SeqValid && cur.SeqValid:
		// A sequence-less candidate may only refresh a dead entry.
		return !cur.Valid
	case cand.SeqValid && !cur.SeqValid:
		return true
	}
	// Equal freshness: a usable route always beats a dead one.
	if !cur.Valid {
		return true
	}
	// Same freshness: compare quality — but never along a longer path.
	// At an equal sequence number, AODV's loop-freedom argument rests on
	// hop counts strictly decreasing toward the destination; accepting a
	// longer route because its load cost is momentarily lower lets two
	// relays of one RREQ flood adopt each other as next hop for the
	// origin (a persistent two-node loop the runtime auditor flags as
	// routing/loop). Cost therefore only arbitrates between candidates
	// that do not lengthen the path.
	if cand.HopCount > cur.HopCount {
		return false
	}
	const eps = 1e-9
	if cand.Cost < cur.Cost-eps {
		return true
	}
	if cand.Cost > cur.Cost+eps {
		return false
	}
	return cand.HopCount < cur.HopCount
}

// Refresh extends the lifetime of an active route (called when the route
// carries data).
func (t *Table) Refresh(dst pkt.NodeID, lifetime des.Time) {
	if r := t.Lookup(dst); r != nil {
		if e := t.sim.Now() + lifetime; e > r.Expires {
			r.Expires = e
		}
	}
}

// InvalidateFrom applies one RERR entry heard from neighbour from: a
// valid route to dst through from becomes invalid and keeps the newer of
// its own and the advertised sequence number, which it returns; ok is
// false (and nothing changes) for any other route.
func (t *Table) InvalidateFrom(dst, from pkt.NodeID, seq uint32) (newSeq uint32, ok bool) {
	r := t.slot(dst)
	if r == nil || !r.Valid || r.NextHop != from {
		return 0, false
	}
	r.Valid = false
	if pkt.SeqNewer(seq, r.Seq) {
		r.Seq = seq
	}
	t.writes++
	return r.Seq, true
}

// InvalidateVia invalidates every valid route whose next hop is via and
// appends the affected destinations, with their (bumped) sequence numbers
// and in destination order, to lost.
func (t *Table) InvalidateVia(via pkt.NodeID, lost []pkt.UnreachableDest) []pkt.UnreachableDest {
	for _, s := range t.idx {
		if s == 0 {
			continue
		}
		if r := &t.entries[s-1]; r.Valid && r.NextHop == via {
			t.kill(r)
			lost = append(lost, pkt.UnreachableDest{Node: r.Dst, Seq: r.Seq})
		}
	}
	return lost
}

// Len returns the number of entries (valid or not).
func (t *Table) Len() int { return len(t.entries) }

// Each calls fn with a copy of every installed entry (valid or not) in
// destination order. It is read-only — unlike Lookup, whose expiry check
// writes — which is why the auditor walks tables with it.
func (t *Table) Each(fn func(Route)) {
	for _, s := range t.idx {
		if s != 0 {
			fn(t.entries[s-1])
		}
	}
}
