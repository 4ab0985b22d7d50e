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
// empty slot, since an entry is live only while exp > now. seq ties the
// entry to its dupRecord and sits in what was padding: still 16 bytes.
type dupEntry struct {
	id  uint32
	seq uint32
	exp des.Time
}

// dupRecord is the expiry-log line of one insertion: entry
// slot%dupRingSize of ring slot/dupRingSize received stamp seq. It is
// current while the slot still carries seq — the entry there then holds
// its expiry time — and stale once the slot has been overwritten.
type dupRecord struct {
	slot uint32
	seq  uint32
}

// dupLogSlack is by how many the log's dead records (popped or stale)
// may outnumber its live ones before it is compacted, so a near-empty
// cache does not compact on every expiry.
const dupLogSlack = 32

// dupRing is the fixed-size ring of recent floods from one origin.
type dupRing struct {
	ent    [dupRingSize]dupEntry
	next   uint8      // round-robin victim when no expired slot is free
	origin pkt.NodeID // in what was padding: still 136 bytes
}

// DupCache remembers recently seen RREQ floods so each node processes a
// flood once. Origins are dense node IDs, so idx, a 4-byte index by
// origin, finds the origin's small fixed-size ring with no map traffic on
// the flood-processing hot path; rings holds one ring per origin this node
// has heard a flood from, created by the first. An entry inserted at time
// t is a duplicate for lookups while exp = t+horizon is strictly in the
// future (exp > now); at exactly t+horizon it has expired. Expired slots
// are never swept: every reader treats them as free, and insertion reuses
// the first one.
//
// The live count is kept, not scanned for. The horizon is fixed between
// Resets and the clock is monotone, so insertion order is expiry order:
// log records every insertion in that order, and expire pops the records
// whose entry has expired, taking one off live for each, and those whose
// slot was overwritten in the meantime. The bookkeeping never touches
// ring contents, so lookups behave the same whether or not anyone calls
// Len.
type DupCache struct {
	sim     *des.Sim
	horizon des.Time
	idx     []int32 // idx[origin] = position in rings + 1; 0 = no flood heard yet
	rings   []dupRing

	live int         // entries with exp > the clock at the last expire
	seq  uint32      // stamp of the latest insertion
	log  []dupRecord // insertions in expiry order; log[:head] already popped
	head int
}

// NewDupCache creates a cache whose entries live for horizon.
func NewDupCache(sim *des.Sim, horizon des.Time) *DupCache {
	d := &DupCache{sim: sim}
	d.Reset(horizon)
	return d
}

// Reset empties the cache in place and rebinds the horizon, keeping the
// index and the ring storage for warm replication reuse. It touches only
// the origins that were heard.
func (d *DupCache) Reset(horizon des.Time) {
	d.horizon = horizon
	for i := range d.rings {
		d.idx[d.rings[i].origin] = 0
	}
	d.rings = d.rings[:0]
	d.live, d.seq, d.log, d.head = 0, 0, d.log[:0], 0
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
	// Expire before claiming a free slot: its previous entry must have
	// left the count before the new one joins it.
	d.expire(now)
	if slot >= 0 {
		d.live++
	} else {
		// All eight are live: the victim's count passes to the newcomer,
		// and the victim's record goes stale by seq mismatch.
		slot = int(r.next)
		r.next = (r.next + 1) % dupRingSize
	}
	d.seq++
	r.ent[slot] = dupEntry{id: id, seq: d.seq, exp: now + d.horizon}
	d.log = append(d.log, dupRecord{slot: uint32(o*dupRingSize + slot), seq: d.seq})
	return false
}

// expire pops records off the front of the log until it meets a current
// one whose entry is still live (exp > now): stale records go uncounted,
// current ones take their expired entry off the live count. Dead records
// — popped, or stale behind a live one — are compacted away once they
// outnumber the live ones by dupLogSlack, which keeps the log O(live
// entries) even on a frozen clock where every insertion overwrites a
// live slot.
func (d *DupCache) expire(now des.Time) {
	h := d.head
	for ; h < len(d.log); h++ {
		if e := d.entry(d.log[h]); e != nil {
			if e.exp > now {
				break
			}
			d.live--
		}
	}
	d.head = h
	if len(d.log) > 2*d.live+dupLogSlack {
		keep := d.log[:0]
		for _, rec := range d.log[h:] {
			if d.entry(rec) != nil {
				keep = append(keep, rec)
			}
		}
		d.log, d.head = keep, 0
	}
}

// entry returns the ring entry rec logged, or nil if its slot has been
// overwritten since.
func (d *DupCache) entry(rec dupRecord) *dupEntry {
	e := &d.rings[rec.slot/dupRingSize].ent[rec.slot%dupRingSize]
	if e.seq != rec.seq {
		return nil
	}
	return e
}

// Len returns the number of live entries — the floods a lookup would
// still report as seen (exp > now). Amortised O(1): it settles the
// expiry log up to now and returns the kept count.
func (d *DupCache) Len() int {
	d.expire(d.sim.Now())
	return d.live
}
