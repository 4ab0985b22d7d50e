package routing

import (
	"clnlr/internal/des"
	"clnlr/internal/pkt"
)

// rreqKey identifies one flood: the pair (origin, RREQ ID).
type rreqKey struct {
	origin pkt.NodeID
	id     uint32
}

// dupRingSize is how many recent floods per origin the cache remembers.
// RREQ IDs are sequential per origin and floods are short-lived, so a
// handful of live entries per origin covers even aggressive retry
// schedules; overflow simply forgets the oldest flood, which at worst
// causes one extra (harmless, still deterministic) rebroadcast.
const dupRingSize = 8

// dupEntry is one remembered flood; the zero value (exp == 0) is an
// empty slot, since an entry is live only while exp > now.
type dupEntry struct {
	id  uint32
	exp des.Time
}

// dupRing is the fixed-size ring of recent floods from one origin.
type dupRing struct {
	ent  [dupRingSize]dupEntry
	next uint8 // round-robin victim when no expired slot is free
}

// DupCache remembers recently seen RREQ floods so each node processes a
// flood once. Origins are dense node IDs, so the cache is a slice of
// small fixed-size rings indexed by origin — no map traffic on the
// flood-processing hot path. An entry inserted at time t is a duplicate
// for lookups while exp = t+horizon is strictly in the future (exp > now);
// at exactly t+horizon it has expired. Expired slots are never swept:
// every reader treats them as free, and insertion reuses the first one.
type DupCache struct {
	sim     *des.Sim
	horizon des.Time
	rings   []dupRing
}

// NewDupCache creates a cache whose entries live for horizon.
func NewDupCache(sim *des.Sim, horizon des.Time) *DupCache {
	d := &DupCache{sim: sim}
	d.Reset(horizon)
	return d
}

// Reset empties the cache in place and rebinds the horizon, keeping the
// grown ring storage for warm replication reuse.
func (d *DupCache) Reset(horizon des.Time) {
	d.horizon = horizon
	for i := range d.rings {
		d.rings[i] = dupRing{}
	}
}

// Seen records the flood and reports whether it had already been seen
// (and not yet expired).
func (d *DupCache) Seen(origin pkt.NodeID, id uint32) bool {
	if origin < 0 {
		return false
	}
	now := d.sim.Now()
	o := int(origin)
	if o >= len(d.rings) {
		d.grow(o)
	}
	r := &d.rings[o]
	slot := -1
	for i := range r.ent {
		e := &r.ent[i]
		if e.exp > now {
			if e.id == id {
				return true
			}
		} else if slot < 0 {
			slot = i
		}
	}
	if slot < 0 {
		slot = int(r.next)
		r.next = (r.next + 1) % dupRingSize
	}
	r.ent[slot] = dupEntry{id: id, exp: now + d.horizon}
	return false
}

// grow extends the ring array to cover origin index o.
func (d *DupCache) grow(o int) {
	for len(d.rings) <= o {
		d.rings = append(d.rings, dupRing{})
	}
}

// Len returns the number of live entries — the floods a lookup would
// still report as seen (exp > now).
func (d *DupCache) Len() int {
	now := d.sim.Now()
	n := 0
	for i := range d.rings {
		for _, e := range d.rings[i].ent {
			if e.exp > now {
				n++
			}
		}
	}
	return n
}
