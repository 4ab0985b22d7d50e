// Package topo derives connectivity structure from node placements and
// the radio model: neighbour lists, connectivity checks and hop
// distances. The experiment harness uses it to reject disconnected random
// placements and to pick multi-hop flow endpoints.
package topo

import (
	"slices"

	"clnlr/internal/geom"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
)

// Topology is the connectivity graph over a set of placed nodes. The zero
// Topology is an empty graph, ready for Reset.
type Topology struct {
	Positions []geom.Point
	// Neighbors[i] lists the nodes whose transmissions node i can decode
	// (interference-free). Symmetric for symmetric propagation models.
	Neighbors [][]pkt.NodeID

	// Scratch of Reset (one propagation row) and of Hops and Connected,
	// which therefore are not safe for concurrent use.
	row   []float64
	dist  []int
	queue []pkt.NodeID
}

// Reset rebuilds t in place as the graph of positions under prop, every
// radio having params: the links a radio.Medium with one such radio
// attached per position reports through InRange at time 0 (a fading
// model's first coherence slot), from the same propagation rows. The
// neighbour lists and the scratch keep their storage, so a placement
// checked seed after seed allocates nothing once they have grown.
func (t *Topology) Reset(positions []geom.Point, prop radio.Propagation, params radio.Params) {
	n := len(positions)
	t.Positions = positions
	t.Neighbors = slices.Grow(t.Neighbors[:0], n)[:n]
	for i := range t.Neighbors {
		t.Neighbors[i] = t.Neighbors[i][:0]
	}
	t.row = slices.Grow(t.row[:0], n)[:n]
	for i := 0; i < n; i++ {
		prop.RxPowers(params.TxPowerW, positions[i], positions, 0, t.row)
		for j, p := range t.row {
			if p >= params.RxThreshW && i != j {
				t.Neighbors[j] = append(t.Neighbors[j], pkt.NodeID(i))
			}
		}
	}
}

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.Neighbors) }

// Hops returns the hop distance from one node to another, -1 if there is
// no path. Its breadth-first search reuses the graph's scratch and stops
// as soon as the answer is known.
func (t *Topology) Hops(from, to pkt.NodeID) int {
	t.queue = t.bfs(from, to, t.scratch(), t.queue)
	return t.dist[to]
}

// scratch returns the BFS distance scratch, sized to the graph.
func (t *Topology) scratch() []int {
	t.dist = slices.Grow(t.dist[:0], t.N())[:t.N()]
	return t.dist
}

// bfs labels dist with hop distances from the given node (-1 for nodes it
// did not reach), stopping early once until is labelled (-1: never). A BFS
// label is final when assigned, so dist[until] is exact either way. It
// returns the queue for reuse.
func (t *Topology) bfs(from, until pkt.NodeID, dist []int, queue []pkt.NodeID) []pkt.NodeID {
	for i := range dist {
		dist[i] = -1
	}
	dist[from] = 0
	queue = append(queue[:0], from)
	for head := 0; head < len(queue); head++ {
		if until >= 0 && dist[until] >= 0 {
			break
		}
		u := queue[head]
		for _, v := range t.Neighbors[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// Connected reports whether every node is reachable from node 0.
func (t *Topology) Connected() bool {
	if t.N() == 0 {
		return true
	}
	dist := t.scratch()
	t.queue = t.bfs(0, -1, dist, t.queue)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}
