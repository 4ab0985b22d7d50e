package routing

import (
	"clnlr/internal/des"
	"clnlr/internal/pkt"
	"clnlr/internal/recycle"
)

// rreqKey identifies one flood: the pair (origin, RREQ ID).
type rreqKey struct {
	origin pkt.NodeID
	id     uint32
}

// Hash is the key as one 64-bit word (recycle.Key).
func (k rreqKey) Hash() uint64 { return uint64(uint32(k.origin))<<32 | uint64(k.id) }

// dupMinCap is a new cache's ring capacity. A node has a dozen or so
// floods live at once on a quiet grid and tens under load, so a cache
// doubles a few times at most.
const dupMinCap = 8

// dupEntry is one live flood and the time it expires.
type dupEntry struct {
	rreqKey
	exp des.Time
}

// DupCache remembers recently seen RREQ floods so each node processes a
// flood once (RFC 3561's PATH_DISCOVERY_TIME). An entry inserted at time
// t is a duplicate for lookups while exp = t+horizon is strictly in the
// future (exp > now); at exactly t+horizon it has expired. No live entry
// is ever forgotten, however many one origin has.
//
// It holds the live floods only, so its size follows the floods live at
// once, not the origins ever heard. The horizon is fixed between Resets
// and the clock is monotone, so insertion order is expiry order: ring is
// a FIFO of the live entries, ring[head] expires first, and expiry pops
// the head. index is the set of the live floods (recycle.Index: open
// addressing, deletion by backward shift), so Seen is one probe run. The
// ring doubles when the live count passes its capacity, the index only
// past the most keys it has held, and both keep their storage across
// Reset: a warm cache allocates only when a run has more floods live at
// once than any before.
type DupCache struct {
	sim     *des.Sim
	horizon des.Time
	ring    []dupEntry // power-of-two length; n live entries from head, wrapping
	head, n int
	index   recycle.Index[rreqKey, struct{}]
}

// NewDupCache creates a cache whose entries live for horizon.
func NewDupCache(sim *des.Sim, horizon des.Time) *DupCache {
	d := &DupCache{sim: sim, horizon: horizon}
	d.grow()
	return d
}

// Reset empties the cache in place and rebinds the horizon, keeping the
// ring and index storage for warm replication reuse. The index it clears
// is sized by the peak live count, not by the network.
func (d *DupCache) Reset(horizon des.Time) {
	d.horizon = horizon
	d.index.Clear()
	d.head, d.n = 0, 0
}

// Seen records the flood and reports whether it had already been seen
// (and not yet expired).
func (d *DupCache) Seen(origin pkt.NodeID, id uint32) bool {
	if origin < 0 {
		return false
	}
	now := d.sim.Now()
	d.expire(now)
	k := rreqKey{origin, id}
	if !d.index.Put(k, struct{}{}) {
		return true
	}
	if d.n == len(d.ring) {
		d.grow()
	}
	pos := (d.head + d.n) & (len(d.ring) - 1)
	d.ring[pos] = dupEntry{k, now + d.horizon}
	d.n++
	return false
}

// Len returns the number of live entries — the floods a lookup would
// still report as seen (exp > now). Amortised O(1): it pops the entries
// that have expired and counts the rest.
func (d *DupCache) Len() int {
	d.expire(d.sim.Now())
	return d.n
}

// expire pops the entries that have expired (exp <= now) off the ring's
// head and out of the index.
func (d *DupCache) expire(now des.Time) {
	for d.n > 0 && d.ring[d.head].exp <= now {
		d.index.Delete(d.ring[d.head].rreqKey)
		d.head = (d.head + 1) & (len(d.ring) - 1)
		d.n--
	}
}

// grow doubles the ring (or makes a new cache's) and lays the live
// entries out from position 0.
func (d *DupCache) grow() {
	c := max(2*len(d.ring), dupMinCap)
	ring := make([]dupEntry, c)
	for i := range d.n {
		ring[i] = d.ring[(d.head+i)&(len(d.ring)-1)]
	}
	d.ring, d.head = ring, 0
}
