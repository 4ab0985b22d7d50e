package routing

import (
	"slices"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
)

// neighborInfo is what a HELLO beacon taught us about one neighbour.
type neighborInfo struct {
	load      float64
	lastHeard des.Time
}

// NeighborTable tracks HELLO-derived neighbourhood state: who is nearby
// and how loaded their surroundings are. Entries go stale when beacons
// stop arriving.
//
// Node IDs are dense, so pos, a 4-byte index by NodeID, finds a
// neighbour in ids, the sorted list of present IDs, and info[k] is what
// ids[k] last told us: storage is O(#neighbours), and walking it visits
// them in ascending ID order with no per-call sort, which keeps
// floating-point accumulation (and therefore whole runs) deterministic
// despite lazily discovered neighbours. A *neighborInfo is only valid
// until the next Update or Remove (both shift the lists).
//
// hops[k] is ids[k]'s piggybacked one-hop load table (only filled when
// two-hop HELLOs are enabled). The buffers stay with their positions:
// insert and Remove move the tables' contents, not the buffers, and hops
// never shrinks, so a warm table that goes through the same joins and
// departures again reuses the same buffers.
type NeighborTable struct {
	sim    *des.Sim
	maxAge des.Time
	pos    []int32              // pos[id] = index+1 into ids and info; 0 = absent
	ids    []pkt.NodeID         // present neighbour IDs, ascending
	info   []neighborInfo       // parallel to ids
	hops   [][]pkt.NeighborLoad // hops[k] for k < len(ids) parallel to ids; spare buffers past it
}

// NewNeighborTable creates a table whose entries expire after maxAge.
func NewNeighborTable(sim *des.Sim, maxAge des.Time) *NeighborTable {
	return &NeighborTable{sim: sim, maxAge: maxAge}
}

// Reset empties the table in place and rebinds the staleness horizon,
// keeping the index and the lists' storage (two-hop buffers included) for
// warm replication reuse.
func (nt *NeighborTable) Reset(maxAge des.Time) {
	nt.maxAge = maxAge
	for k, id := range nt.ids {
		nt.pos[id] = 0
		nt.hops[k] = nt.hops[k][:0]
	}
	nt.ids = nt.ids[:0]
	nt.info = nt.info[:0]
}

// insert adds id to the sorted present list, indexes it and returns its
// cleared info slot; its two-hop table starts empty.
func (nt *NeighborTable) insert(id pkt.NodeID) *neighborInfo {
	j, _ := slices.BinarySearch(nt.ids, id)
	nt.ids = slices.Insert(nt.ids, j, id)
	nt.info = slices.Insert(nt.info, j, neighborInfo{})
	n := len(nt.ids) - 1
	if n == len(nt.hops) {
		nt.hops = append(nt.hops, nil)
	}
	for k := n; k > j; k-- {
		nt.hops[k] = append(nt.hops[k][:0], nt.hops[k-1]...)
	}
	nt.hops[j] = nt.hops[j][:0]
	nt.pos = growIndex(nt.pos, int(id))
	for k := j; k < len(nt.ids); k++ {
		nt.pos[nt.ids[k]] = int32(k + 1)
	}
	return &nt.info[j]
}

// Update records a received HELLO. twoHop is its piggybacked table; nil
// (a one-hop beacon) leaves the last table heard from this neighbour in
// place.
func (nt *NeighborTable) Update(from pkt.NodeID, load float64, twoHop []pkt.NeighborLoad) {
	if from < 0 {
		return
	}
	var e *neighborInfo
	if int(from) < len(nt.pos) && nt.pos[from] != 0 {
		e = &nt.info[nt.pos[from]-1]
	} else {
		e = nt.insert(from)
	}
	e.load = load
	e.lastHeard = nt.sim.Now()
	if twoHop != nil {
		k := nt.pos[from] - 1
		nt.hops[k] = append(nt.hops[k][:0], twoHop...)
	}
}

// Remove forgets a neighbour (e.g. after a link-layer failure toward it),
// its two-hop table with it: a later re-insert must not observe this
// incarnation's table, which an Update carrying no two-hop payload would
// otherwise leave visible (map-delete semantics).
func (nt *NeighborTable) Remove(id pkt.NodeID) {
	if id < 0 || int(id) >= len(nt.pos) || nt.pos[id] == 0 {
		return
	}
	j := int(nt.pos[id]) - 1
	nt.ids = slices.Delete(nt.ids, j, j+1)
	nt.info = slices.Delete(nt.info, j, j+1)
	n := len(nt.ids)
	for k := j; k < n; k++ {
		nt.hops[k] = append(nt.hops[k][:0], nt.hops[k+1]...)
		nt.pos[nt.ids[k]] = int32(k + 1)
	}
	nt.hops[n] = nt.hops[n][:0]
	nt.pos[id] = 0
}

func (nt *NeighborTable) fresh(e *neighborInfo) bool {
	return nt.sim.Now()-e.lastHeard <= nt.maxAge
}

// Count returns the number of fresh neighbours — the density estimate
// CLNLR's forwarding probability adapts to.
func (nt *NeighborTable) Count() int {
	n := 0
	for k := range nt.info {
		if nt.fresh(&nt.info[k]) {
			n++
		}
	}
	return n
}

// Loads returns the fresh neighbours and their loads in ascending ID order
// (for piggybacking into outgoing two-hop HELLOs), written over dst's
// storage. The result is never nil: an empty table still marks a two-hop
// beacon (see Update).
func (nt *NeighborTable) Loads(dst []pkt.NeighborLoad) []pkt.NeighborLoad {
	out := dst[:0]
	if out == nil {
		out = []pkt.NeighborLoad{}
	}
	for k := range nt.info {
		if e := &nt.info[k]; nt.fresh(e) {
			out = append(out, pkt.NeighborLoad{ID: nt.ids[k], Load: e.load})
		}
	}
	return out
}

// NeighborhoodLoad returns the mean load over this node (ownLoad) and its
// fresh neighbours; with twoHop it also averages in the neighbours'
// piggybacked tables (excluding entries that refer back to self). The
// result is the NL ∈ [0,1] figure at the heart of CLNLR.
func (nt *NeighborTable) NeighborhoodLoad(self pkt.NodeID, ownLoad float64, twoHop bool) float64 {
	sum := ownLoad
	n := 1.0
	for k := range nt.info {
		e := &nt.info[k]
		if !nt.fresh(e) {
			continue
		}
		sum += e.load
		n++
		if !twoHop {
			continue
		}
		for _, nl := range nt.hops[k] {
			if nl.ID == self || nl.ID == nt.ids[k] {
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
