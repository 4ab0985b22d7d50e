// Package topo derives connectivity structure from node placements and
// the radio model: neighbour lists, connectivity checks and hop-distance
// maps. The experiment harness uses it to reject disconnected random
// placements and to pick multi-hop flow endpoints.
package topo

import (
	"clnlr/internal/geom"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
)

// Topology is the connectivity graph over a set of placed nodes.
type Topology struct {
	Positions []geom.Point
	// Neighbors[i] lists the nodes whose transmissions node i can decode
	// (interference-free). Symmetric for symmetric propagation models.
	Neighbors [][]pkt.NodeID

	// Scratch of Hops, which therefore is not safe for concurrent use.
	dist  []int
	queue []pkt.NodeID
}

// FromMedium builds the graph using the medium's own propagation model and
// thresholds, so the routing layer's notion of "link" matches the channel.
func FromMedium(m *radio.Medium, positions []geom.Point) *Topology {
	n := m.NumRadios()
	t := &Topology{
		Positions: positions,
		Neighbors: make([][]pkt.NodeID, n),
	}
	hears := make([]bool, n) // who decodes i: one propagation row per node
	for i := 0; i < n; i++ {
		m.InRangeRow(i, hears)
		for j, ok := range hears {
			if ok && i != j {
				t.Neighbors[j] = append(t.Neighbors[j], pkt.NodeID(i))
			}
		}
	}
	return t
}

// FromRange builds the graph with a fixed communication radius (unit-disk
// model), useful for tests and analytic sanity checks.
func FromRange(positions []geom.Point, rangeM float64) *Topology {
	n := len(positions)
	t := &Topology{
		Positions: positions,
		Neighbors: make([][]pkt.NodeID, n),
	}
	r2 := rangeM * rangeM
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if positions[i].Dist2(positions[j]) <= r2 {
				t.Neighbors[i] = append(t.Neighbors[i], pkt.NodeID(j))
				t.Neighbors[j] = append(t.Neighbors[j], pkt.NodeID(i))
			}
		}
	}
	return t
}

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.Neighbors) }

// Degree returns node i's neighbour count.
func (t *Topology) Degree(i pkt.NodeID) int { return len(t.Neighbors[i]) }

// HopDist returns BFS hop distances from the given node; unreachable nodes
// get -1.
func (t *Topology) HopDist(from pkt.NodeID) []int {
	dist := make([]int, t.N())
	t.bfs(from, -1, dist, nil)
	return dist
}

// Hops returns the hop distance from one node to another, -1 if there is
// no path: HopDist(from)[to] without the allocations, stopping as soon as
// the answer is known.
func (t *Topology) Hops(from, to pkt.NodeID) int {
	if len(t.dist) != t.N() {
		t.dist = make([]int, t.N())
	}
	t.queue = t.bfs(from, to, t.dist, t.queue)
	return t.dist[to]
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
	for _, d := range t.HopDist(0) {
		if d == -1 {
			return false
		}
	}
	return true
}
