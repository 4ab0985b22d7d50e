package routing

import (
	"math/bits"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
)

// rreqKey identifies one flood: the pair (origin, RREQ ID).
type rreqKey struct {
	origin pkt.NodeID
	id     uint32
}

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
// the head. index is an open-addressing hash over the ring keyed by
// (origin, id), probed linearly, so Seen is one probe run. It holds ring
// position + 1 (0 = empty) and is twice the ring's length, so it is at
// most half full, and expiry deletes by backward shift, so no tombstone
// ever lengthens a probe. Both double when the live count passes the
// ring's capacity and keep their storage across Reset: a warm cache
// allocates only when a run has more floods live at once than any before.
type DupCache struct {
	sim     *des.Sim
	horizon des.Time
	ring    []dupEntry // power-of-two length; n live entries from head, wrapping
	head, n int
	index   []int32 // len 2·len(ring): ring position + 1, 0 = empty slot
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
	clear(d.index)
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
	s, hit := d.lookup(k)
	if hit {
		return true
	}
	if d.n == len(d.ring) {
		d.grow()
		s, _ = d.lookup(k)
	}
	pos := (d.head + d.n) & (len(d.ring) - 1)
	d.ring[pos] = dupEntry{k, now + d.horizon}
	d.index[s] = int32(pos + 1)
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

// home is k's first probe slot: the top log2(len(index)) bits of the
// 64-bit key's Fibonacci hash.
func (d *DupCache) home(k rreqKey) int {
	h := (uint64(uint32(k.origin))<<32 | uint64(k.id)) * 0x9e3779b97f4a7c15
	return int(h >> bits.LeadingZeros64(uint64(len(d.index)-1)))
}

// lookup returns the index slot holding k and true, or the empty slot
// that ends k's probe run and false.
func (d *DupCache) lookup(k rreqKey) (int, bool) {
	mask := len(d.index) - 1
	for s := d.home(k); ; s = (s + 1) & mask {
		p := d.index[s]
		if p == 0 {
			return s, false
		}
		if d.ring[p-1].rreqKey == k {
			return s, true
		}
	}
}

// expire pops the entries that have expired (exp <= now) off the ring's
// head and out of the index.
func (d *DupCache) expire(now des.Time) {
	for d.n > 0 && d.ring[d.head].exp <= now {
		d.unindex(d.ring[d.head].rreqKey)
		d.head = (d.head + 1) & (len(d.ring) - 1)
		d.n--
	}
}

// unindex deletes k's slot by backward shift: walking the probe run past
// the hole, each entry whose home does not lie cyclically in (hole, its
// slot] moves back into the hole, which moves on to where it was. Every
// entry left stays reachable from its home through occupied slots.
func (d *DupCache) unindex(k rreqKey) {
	mask := len(d.index) - 1
	i, _ := d.lookup(k)
	for j := (i + 1) & mask; d.index[j] != 0; j = (j + 1) & mask {
		h := d.home(d.ring[d.index[j]-1].rreqKey)
		if (j-h)&mask < (j-i)&mask {
			continue // home in (i, j]: moving back would strand it
		}
		d.index[i] = d.index[j]
		i = j
	}
	d.index[i] = 0
}

// grow doubles the ring (or makes a new cache's), lays the live entries
// out from position 0 and rebuilds the index at twice the ring's length.
func (d *DupCache) grow() {
	c := max(2*len(d.ring), dupMinCap)
	ring := make([]dupEntry, c)
	for i := range d.n {
		ring[i] = d.ring[(d.head+i)&(len(d.ring)-1)]
	}
	d.ring, d.head = ring, 0
	d.index = make([]int32, 2*c)
	for i := range d.n {
		s, _ := d.lookup(ring[i].rreqKey)
		d.index[s] = int32(i + 1)
	}
}
