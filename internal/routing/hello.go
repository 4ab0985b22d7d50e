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
	// twoHop holds the neighbour's piggybacked 1-hop load table (only
	// populated when two-hop HELLOs are enabled).
	twoHop []pkt.NeighborLoad
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
type NeighborTable struct {
	sim    *des.Sim
	maxAge des.Time
	pos    []int32        // pos[id] = index+1 into ids and info; 0 = absent
	ids    []pkt.NodeID   // present neighbour IDs, ascending
	info   []neighborInfo // parallel to ids
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
		nt.info[k].twoHop = nt.info[k].twoHop[:0]
	}
	nt.ids = nt.ids[:0]
	nt.info = nt.info[:0]
}

// insert adds id to the sorted present list, indexes it and returns its
// cleared info slot. The slot's two-hop buffer is the one parked past the
// end of info by the last Remove or Reset, if any.
func (nt *NeighborTable) insert(id pkt.NodeID) *neighborInfo {
	j, _ := slices.BinarySearch(nt.ids, id)
	nt.ids = append(nt.ids, 0)
	copy(nt.ids[j+1:], nt.ids[j:])
	nt.ids[j] = id
	n := len(nt.info)
	nt.info = slices.Grow(nt.info, 1)[:n+1] // not append: info[n] may hold a parked buffer
	spare := nt.info[n].twoHop[:0]
	copy(nt.info[j+1:], nt.info[j:n])
	nt.info[j] = neighborInfo{twoHop: spare}
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
		e.twoHop = append(e.twoHop[:0], twoHop...)
	}
}

// Remove forgets a neighbour (e.g. after a link-layer failure toward it).
func (nt *NeighborTable) Remove(id pkt.NodeID) {
	if id < 0 || int(id) >= len(nt.pos) || nt.pos[id] == 0 {
		return
	}
	j := int(nt.pos[id]) - 1
	n := len(nt.ids) - 1
	// The vacated slot leaves with the neighbour (map-delete semantics: a
	// later re-insert must not observe this incarnation's piggybacked
	// table, which an Update carrying no two-hop payload would otherwise
	// leave visible); only its buffer is parked past the end for insert.
	spare := nt.info[j].twoHop[:0]
	copy(nt.ids[j:], nt.ids[j+1:])
	copy(nt.info[j:], nt.info[j+1:])
	nt.info[n] = neighborInfo{twoHop: spare}
	nt.ids, nt.info = nt.ids[:n], nt.info[:n]
	for k := j; k < n; k++ {
		nt.pos[nt.ids[k]] = int32(k + 1)
	}
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
		for _, nl := range e.twoHop {
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
