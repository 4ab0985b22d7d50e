package routing

import (
	"slices"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
	"clnlr/internal/recycle"
)

// rreqKey identifies one flood: the pair (origin, RREQ ID).
type rreqKey struct {
	origin pkt.NodeID
	id     uint32
}

// dupRingSize is how many floods per origin a ring holds inline. RREQ IDs
// are sequential per origin and floods are short-lived, so a handful of
// live entries per origin is the common case; a busy origin's ninth live
// flood goes to the ring's spill.
const dupRingSize = 8

// dupEntry is one remembered flood; the zero value (exp == 0) is an
// empty slot, since an entry is live only while exp > now.
type dupEntry struct {
	id  uint32
	exp des.Time
}

// dupRing holds the recent floods from one origin.
type dupRing struct {
	ent    [dupRingSize]dupEntry
	origin pkt.NodeID // Reset's way back to the index
}

// DupCache remembers recently seen RREQ floods so each node processes a
// flood once (RFC 3561's PATH_DISCOVERY_TIME). Origins are dense node IDs,
// so idx, a 4-byte index by origin, finds the origin's ring with no map
// traffic on the flood-processing hot path; rings holds one ring per origin
// this node has heard a flood from, created by the first. An entry
// inserted at time t is a duplicate for lookups while exp = t+horizon is
// strictly in the future (exp > now); at exactly t+horizon it has expired.
// Expired slots are never swept: every reader treats them as free, and
// insertion reuses the first one. A live entry is never overwritten: when
// all of a ring's slots are live, the flood goes to spill[o], ring o's
// overflow. Reset returns every spill buffer to spare, where the next
// first spill takes one, so spill storage survives warm runs whichever
// ring positions spill in them.
//
// The live count is kept, not scanned for. The horizon is fixed between
// Resets, the clock is monotone and nothing live is overwritten, so
// insertion order is expiry order: exps holds every insertion's expiry
// time, and the live entries are those past head once the expired ones
// are popped.
type DupCache struct {
	sim     *des.Sim
	horizon des.Time
	idx     []int32 // idx[origin] = position in rings + 1; 0 = no flood heard yet
	rings   []dupRing
	spill   [][]dupEntry // spill[o]: ring o's floods past dupRingSize live
	spare   recycle.List[[]dupEntry]

	exps []des.Time // expiry times in insertion order; exps[:head] already popped
	head int
}

// NewDupCache creates a cache whose entries live for horizon.
func NewDupCache(sim *des.Sim, horizon des.Time) *DupCache {
	d := &DupCache{sim: sim}
	d.Reset(horizon)
	return d
}

// Reset empties the cache in place and rebinds the horizon, keeping the
// index, the ring storage and, in spare, the spill buffers for warm
// replication reuse. It touches only the origins that were heard.
func (d *DupCache) Reset(horizon des.Time) {
	d.horizon = horizon
	for i := range d.rings {
		d.idx[d.rings[i].origin] = 0
	}
	d.rings = d.rings[:0]
	for _, s := range d.spill {
		if s != nil {
			d.spare.Put(s[:0], recycle.Unbounded)
		}
	}
	d.spill = d.spill[:0]
	d.exps, d.head = d.exps[:0], 0
}

// Seen records the flood and reports whether it had already been seen
// (and not yet expired).
func (d *DupCache) Seen(origin pkt.NodeID, id uint32) bool {
	if origin < 0 {
		return false
	}
	now := d.sim.Now()
	o := -1 // position in rings
	if int(origin) < len(d.idx) {
		o = int(d.idx[origin]) - 1
	}
	if o < 0 {
		// First flood from this origin: it gets a ring.
		o = len(d.rings)
		d.rings = append(d.rings, dupRing{origin: origin})
		d.idx = growIndex(d.idx, int(origin))
		d.idx[origin] = int32(o + 1)
	}
	r := &d.rings[o]
	var free *dupEntry
	for i := range r.ent {
		e := &r.ent[i]
		if e.exp > now {
			if e.id == id {
				return true
			}
		} else if free == nil {
			free = e
		}
	}
	if o < len(d.spill) {
		s := d.spill[o]
		for i := range s {
			e := &s[i]
			if e.exp > now {
				if e.id == id {
					return true
				}
			} else if free == nil {
				free = e
			}
		}
	}
	if free == nil {
		// Every slot is live: the ring spills rather than forget one. A
		// first spill takes a spare buffer, or makes room for eight, so a
		// warm engine seldom allocates one.
		for len(d.spill) <= o {
			d.spill = append(d.spill, nil)
		}
		if d.spill[o] == nil {
			s, _ := d.spare.Get()
			d.spill[o] = slices.Grow(s, dupRingSize)
		}
		d.spill[o] = append(d.spill[o], dupEntry{})
		free = &d.spill[o][len(d.spill[o])-1]
	}
	exp := now + d.horizon
	*free = dupEntry{id: id, exp: exp}
	d.expire(now)
	d.exps = append(d.exps, exp)
	return false
}

// expire pops the expiry times that have passed (exp <= now) and, once
// the popped ones are at least half of exps, moves the rest to the front,
// so exps stays O(live entries) whether or not anyone calls Len.
func (d *DupCache) expire(now des.Time) {
	for d.head < len(d.exps) && d.exps[d.head] <= now {
		d.head++
	}
	if d.head > 0 && 2*d.head >= len(d.exps) {
		n := copy(d.exps, d.exps[d.head:])
		d.exps, d.head = d.exps[:n], 0
	}
}

// Len returns the number of live entries — the floods a lookup would
// still report as seen (exp > now). Amortised O(1): it pops the expiry
// times that have passed and counts the rest.
func (d *DupCache) Len() int {
	d.expire(d.sim.Now())
	return len(d.exps) - d.head
}
