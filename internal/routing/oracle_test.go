package routing

// The oracles of the differential tests in differential_test.go. Table
// and NeighborTable are the dense per-node structures as they stood before
// the payloads moved behind an index (commit 0125d6d), kept verbatim but
// for the type names; Route is shared with the code under test — it did
// not change. The duplicate cache's oracle is a map with RFC 3561's
// semantics.

import (
	"slices"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
)

// denseTableEntry is one slot of the dense destination-indexed table.
type denseTableEntry struct {
	r       Route
	present bool
}

// Table is a per-node routing table with AODV freshness semantics. Node
// IDs are dense (0..N-1), so entries live in a slice indexed by
// destination ID rather than a map; slots grow lazily on first write.
// Pointers returned by Lookup/Get alias the slice and are only valid
// until the next Update (growth may move the backing array).
type denseTable struct {
	sim     *des.Sim
	entries []denseTableEntry
	count   int
}

// NewTable returns an empty table bound to the simulation clock.
func newDenseTable(sim *des.Sim) *denseTable {
	return &denseTable{sim: sim}
}

// Reset empties the table in place, keeping the grown slot storage for
// warm replication reuse.
func (t *denseTable) Reset() {
	for i := range t.entries {
		t.entries[i] = denseTableEntry{}
	}
	t.count = 0
}

// grow extends the slot array to cover destination index i.
func (t *denseTable) grow(i int) {
	for len(t.entries) <= i {
		t.entries = append(t.entries, denseTableEntry{})
	}
}

// slot returns the entry for dst, or nil when dst was never installed
// (or is not a unicast ID).
func (t *denseTable) slot(dst pkt.NodeID) *denseTableEntry {
	if dst < 0 || int(dst) >= len(t.entries) {
		return nil
	}
	e := &t.entries[dst]
	if !e.present {
		return nil
	}
	return e
}

// expire lazily finalises an entry whose lifetime has passed: the route
// becomes unusable and, per AODV, its stored sequence number is bumped —
// exactly as Invalidate does — so an in-flight advertisement derived from
// the expired route (same seq) can no longer re-install it.
func (t *denseTable) expire(r *Route) {
	if r.Valid && r.Expires <= t.sim.Now() {
		r.Valid = false
		if r.SeqValid {
			r.Seq++
		}
	}
}

// Lookup returns the valid, unexpired route to dst, or nil.
func (t *denseTable) Lookup(dst pkt.NodeID) *Route {
	e := t.slot(dst)
	if e == nil {
		return nil
	}
	t.expire(&e.r)
	if !e.r.Valid {
		return nil
	}
	return &e.r
}

// Get returns the entry for dst even if invalid or expired (for sequence
// number bookkeeping), or nil if none was ever installed.
func (t *denseTable) Get(dst pkt.NodeID) *Route {
	if e := t.slot(dst); e != nil {
		return &e.r
	}
	return nil
}

// Update installs cand if it is fresher or better than the current entry,
// per AODV rules: a newer destination sequence number always wins; an
// equal sequence number wins on lower cost, then lower hop count; an entry
// without sequence information never displaces one with it, but refreshes
// an invalid entry. Returns true if the table changed.
func (t *denseTable) Update(cand Route) bool {
	if cand.Dst < 0 {
		return false
	}
	i := int(cand.Dst)
	if i >= len(t.entries) {
		t.grow(i)
	}
	e := &t.entries[i]
	if !e.present {
		e.r = cand
		e.present = true
		t.count++
		return true
	}
	cur := &e.r
	t.expire(cur)
	if t.better(cand, cur) {
		// Preserve the highest sequence number ever seen.
		if cur.SeqValid && !cand.SeqValid {
			cand.Seq, cand.SeqValid = cur.Seq, true
		}
		*cur = cand
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
func (t *denseTable) better(cand Route, cur *Route) bool {
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
func (t *denseTable) Refresh(dst pkt.NodeID, lifetime des.Time) {
	if r := t.Lookup(dst); r != nil {
		if e := t.sim.Now() + lifetime; e > r.Expires {
			r.Expires = e
		}
	}
}

// Invalidate marks the route to dst broken and returns it (nil if there
// was no valid route). The sequence number is bumped so stale copies of
// the dead route cannot be re-installed.
func (t *denseTable) Invalidate(dst pkt.NodeID) *Route {
	e := t.slot(dst)
	if e == nil || !e.r.Valid {
		return nil
	}
	e.r.Valid = false
	if e.r.SeqValid {
		e.r.Seq++
	}
	return &e.r
}

// InvalidateFrom applies one RERR entry heard from neighbour from: a
// valid route to dst via from dies, keeping the newer sequence number.
func (t *denseTable) InvalidateFrom(dst, from pkt.NodeID, seq uint32) (uint32, bool) {
	r := t.Get(dst)
	if r != nil && r.Valid && r.NextHop == from {
		r.Valid = false
		if pkt.SeqNewer(seq, r.Seq) {
			r.Seq = seq
		}
		return r.Seq, true
	}
	return 0, false
}

// InvalidateVia invalidates every valid route whose next hop is via and
// returns the affected destinations with their (bumped) sequence numbers.
func (t *denseTable) InvalidateVia(via pkt.NodeID) []pkt.UnreachableDest {
	var lost []pkt.UnreachableDest
	for i := range t.entries {
		e := &t.entries[i]
		if e.present && e.r.Valid && e.r.NextHop == via {
			e.r.Valid = false
			if e.r.SeqValid {
				e.r.Seq++
			}
			lost = append(lost, pkt.UnreachableDest{Node: e.r.Dst, Seq: e.r.Seq})
		}
	}
	return lost
}

// Len returns the number of entries (valid or not).
func (t *denseTable) Len() int { return t.count }

// Each calls fn for every installed entry (valid or not) in destination
// order. The pointers alias table storage exactly like Lookup/Get — the
// auditor uses this for read-only iteration; fn must not call Update.
func (t *denseTable) Each(fn func(*Route)) {
	for i := range t.entries {
		if t.entries[i].present {
			fn(&t.entries[i].r)
		}
	}
}

// mapDupCache is the duplicate cache as RFC 3561 states it: a flood's
// (origin, ID) is remembered for the horizon after it was first recorded,
// with no bound on how many are live at once.
type mapDupCache struct {
	sim     *des.Sim
	horizon des.Time
	seen    map[rreqKey]des.Time // flood → expiry time
}

func newMapDupCache(sim *des.Sim, horizon des.Time) *mapDupCache {
	return &mapDupCache{sim: sim, horizon: horizon, seen: map[rreqKey]des.Time{}}
}

func (d *mapDupCache) Reset(horizon des.Time) {
	d.horizon = horizon
	clear(d.seen)
}

// Seen reports whether the flood is remembered and not yet expired
// (exp > now), and records it if not.
func (d *mapDupCache) Seen(origin pkt.NodeID, id uint32) bool {
	if origin < 0 {
		return false
	}
	k, now := rreqKey{origin, id}, d.sim.Now()
	if exp, ok := d.seen[k]; ok && exp > now {
		return true
	}
	d.seen[k] = now + d.horizon
	return false
}

// Len counts the floods Seen would still report as seen.
func (d *mapDupCache) Len() int {
	n := 0
	for _, exp := range d.seen {
		if exp > d.sim.Now() {
			n++
		}
	}
	return n
}

// denseNeighborInfo is what a HELLO beacon taught us about one neighbour.
type denseNeighborInfo struct {
	load      float64
	lastHeard des.Time
	// twoHop holds the neighbour's piggybacked 1-hop load table (only
	// populated when two-hop HELLOs are enabled).
	twoHop []pkt.NeighborLoad
}

// NeighborTable tracks HELLO-derived neighbourhood state: who is nearby
// and how loaded their surroundings are. Entries go stale when beacons
// stop arriving.
//
// Node IDs are dense, so per-neighbour state lives in a slice indexed by
// NodeID, with a sorted side list of present IDs: freshIDs then iterates
// only the O(#neighbours) members in ascending order with no per-call
// sort, which keeps floating-point accumulation (and therefore whole
// runs) deterministic despite lazily discovered neighbours.
type denseNeighborTable struct {
	sim     *des.Sim
	maxAge  des.Time
	info    []denseNeighborInfo // dense by neighbour NodeID
	pos     []int32             // pos[id] = index+1 into ids; 0 = absent
	ids     []pkt.NodeID        // present neighbour IDs, ascending
	scratch []pkt.NodeID        // reused by freshIDs; valid until the next call
}

// NewNeighborTable creates a table whose entries expire after maxAge.
func newDenseNeighborTable(sim *des.Sim, maxAge des.Time) *denseNeighborTable {
	return &denseNeighborTable{sim: sim, maxAge: maxAge}
}

// Reset empties the table in place and rebinds the staleness horizon,
// keeping the grown per-ID storage for warm replication reuse.
func (nt *denseNeighborTable) Reset(maxAge des.Time) {
	nt.maxAge = maxAge
	for _, id := range nt.ids {
		nt.pos[id] = 0
		e := &nt.info[id]
		e.load = 0
		e.lastHeard = 0
		e.twoHop = e.twoHop[:0]
	}
	nt.ids = nt.ids[:0]
}

// grow extends the dense arrays to cover neighbour index i.
func (nt *denseNeighborTable) grow(i int) {
	for len(nt.pos) <= i {
		nt.pos = append(nt.pos, 0)
		nt.info = append(nt.info, denseNeighborInfo{})
	}
}

// insert adds id to the sorted present list and indexes it.
func (nt *denseNeighborTable) insert(id pkt.NodeID) {
	j, _ := slices.BinarySearch(nt.ids, id)
	nt.ids = append(nt.ids, 0)
	copy(nt.ids[j+1:], nt.ids[j:])
	nt.ids[j] = id
	for k := j; k < len(nt.ids); k++ {
		nt.pos[nt.ids[k]] = int32(k + 1)
	}
}

// Update records a received HELLO.
func (nt *denseNeighborTable) Update(from pkt.NodeID, load float64, twoHop []pkt.NeighborLoad) {
	if from < 0 {
		return
	}
	i := int(from)
	if i >= len(nt.pos) {
		nt.grow(i)
	}
	if nt.pos[i] == 0 {
		nt.insert(from)
	}
	e := &nt.info[i]
	e.load = load
	e.lastHeard = nt.sim.Now()
	if twoHop != nil {
		e.twoHop = append(e.twoHop[:0], twoHop...)
	}
}

// Remove forgets a neighbour (e.g. after a link-layer failure toward it).
func (nt *denseNeighborTable) Remove(id pkt.NodeID) {
	if id < 0 || int(id) >= len(nt.pos) || nt.pos[id] == 0 {
		return
	}
	j := int(nt.pos[id]) - 1
	copy(nt.ids[j:], nt.ids[j+1:])
	nt.ids = nt.ids[:len(nt.ids)-1]
	for k := j; k < len(nt.ids); k++ {
		nt.pos[nt.ids[k]] = int32(k + 1)
	}
	nt.pos[id] = 0
	// Clear the vacated slot (map-delete semantics): a later re-insert
	// must not observe this incarnation's piggybacked table, which an
	// Update carrying no two-hop payload would otherwise leave visible.
	e := &nt.info[id]
	e.load = 0
	e.lastHeard = 0
	e.twoHop = e.twoHop[:0]
}

func (nt *denseNeighborTable) fresh(e *denseNeighborInfo) bool {
	return nt.sim.Now()-e.lastHeard <= nt.maxAge
}

// Count returns the number of fresh neighbours — the density estimate
// CLNLR's forwarding probability adapts to.
func (nt *denseNeighborTable) Count() int {
	n := 0
	for _, id := range nt.ids {
		if nt.fresh(&nt.info[id]) {
			n++
		}
	}
	return n
}

// freshIDs returns the fresh neighbour IDs in ascending order. The
// returned slice is a reused scratch buffer, only valid until the next
// call.
func (nt *denseNeighborTable) freshIDs() []pkt.NodeID {
	out := nt.scratch[:0]
	for _, id := range nt.ids {
		if nt.fresh(&nt.info[id]) {
			out = append(out, id)
		}
	}
	nt.scratch = out
	return out
}

// Loads returns the fresh neighbours and their loads in ascending ID order
// (for piggybacking into outgoing two-hop HELLOs).
func (nt *denseNeighborTable) Loads() []pkt.NeighborLoad {
	ids := nt.freshIDs()
	out := make([]pkt.NeighborLoad, 0, len(ids))
	for _, id := range ids {
		out = append(out, pkt.NeighborLoad{ID: id, Load: nt.info[id].load})
	}
	return out
}

// NeighborhoodLoad returns the mean load over this node (ownLoad) and its
// fresh neighbours; with twoHop it also averages in the neighbours'
// piggybacked tables (excluding entries that refer back to self). The
// result is the NL ∈ [0,1] figure at the heart of CLNLR.
func (nt *denseNeighborTable) NeighborhoodLoad(self pkt.NodeID, ownLoad float64, twoHop bool) float64 {
	sum := ownLoad
	n := 1.0
	for _, id := range nt.freshIDs() {
		e := &nt.info[id]
		sum += e.load
		n++
		if !twoHop {
			continue
		}
		for _, nl := range e.twoHop {
			if nl.ID == self || nl.ID == id {
				continue
			}
			// Second-ring information is older and indirect: weight it
			// half as much as first-ring measurements.
			sum += 0.5 * nl.Load
			n += 0.5
		}
	}
	return sum / n
}
