package topo

import (
	"fmt"
	"slices"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
)

// twoRay is the propagation every run's connectivity check uses by
// default; under radio.DefaultParams it links radios up to 250 m apart.
func twoRay() radio.Propagation { return radio.NewTwoRay(914e6, 1.5, 1.5) }

func TestResetChain(t *testing.T) {
	var tp Topology
	tp.Reset(geom.ChainPlacement(geom.Point{}, 5, 200), twoRay(), radio.DefaultParams())
	if tp.N() != 5 {
		t.Fatalf("N = %d", tp.N())
	}
	// Inner nodes have 2 neighbours, ends have 1.
	wantDeg := []int{1, 2, 2, 2, 1}
	for i, w := range wantDeg {
		if len(tp.Neighbors[i]) != w {
			t.Fatalf("degree[%d] = %d, want %d", i, len(tp.Neighbors[i]), w)
		}
	}
	if !tp.Connected() {
		t.Fatal("chain should be connected")
	}
	for i := range wantDeg {
		if d := tp.Hops(0, pkt.NodeID(i)); d != i {
			t.Fatalf("hops to %d = %d", i, d)
		}
	}
}

// TestConnectedFalseWhenSplit: two pairs 900 m apart are not one graph,
// and Hops reports -1 across the gap.
func TestConnectedFalseWhenSplit(t *testing.T) {
	var tp Topology
	tp.Reset([]geom.Point{{X: 0}, {X: 100}, {X: 1000}, {X: 1100}}, twoRay(), radio.DefaultParams())
	if tp.Connected() {
		t.Fatal("gap topology reported connected")
	}
	if tp.Hops(0, 1) != 1 || tp.Hops(0, 2) != -1 || tp.Hops(0, 3) != -1 || tp.Hops(2, 3) != 1 {
		t.Fatalf("hops 0→1 %d, 0→2 %d, 0→3 %d, 2→3 %d, want 1, -1, -1, 1",
			tp.Hops(0, 1), tp.Hops(0, 2), tp.Hops(0, 3), tp.Hops(2, 3))
	}
}

func TestResetSymmetric(t *testing.T) {
	var tp Topology
	tp.Reset(geom.GridPlacement(geom.Square(700), 5, 5), twoRay(), radio.DefaultParams())
	for i, nbrs := range tp.Neighbors {
		for _, j := range nbrs {
			if !slices.Contains(tp.Neighbors[j], pkt.NodeID(i)) {
				t.Fatalf("asymmetric link %d -> %v", i, j)
			}
		}
	}
}

// bfsDist is the reference for Hops: a full breadth-first search from
// one node, -1 for the nodes it does not reach.
func bfsDist(tp *Topology, from pkt.NodeID) []int {
	dist := make([]int, tp.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[from] = 0
	for queue := []pkt.NodeID{from}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, v := range tp.Neighbors[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// TestHopsMatchesFullBFS: Hops, which stops its search at the
// destination, equals a full BFS distance for every pair of a perturbed
// grid under two-ray, at several seeds, and for a split graph.
func TestHopsMatchesFullBFS(t *testing.T) {
	var tp Topology
	check := func(name string) {
		t.Helper()
		for from := 0; from < tp.N(); from++ {
			want := bfsDist(&tp, pkt.NodeID(from))
			for to := range want {
				if got := tp.Hops(pkt.NodeID(from), pkt.NodeID(to)); got != want[to] {
					t.Fatalf("%s: Hops(%d, %d) = %d, full BFS %d", name, from, to, got, want[to])
				}
			}
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		pts := geom.PerturbedGridPlacement(nil, geom.Square(1400), 8, 8, 0.4, rng.New(seed))
		tp.Reset(pts, twoRay(), radio.DefaultParams())
		check(fmt.Sprintf("perturbed grid seed %d", seed))
	}
	tp.Reset([]geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 1000}, {X: 1200}}, twoRay(), radio.DefaultParams())
	check("split chain")
}

// TestResetMatchesMediumRange: Reset links exactly the pairs a medium
// with the same radios reports in range, also under a seeded shadowing
// model, keeps that graph when run again over other positions, and
// rebuilding a graph it has already sized allocates nothing.
func TestResetMatchesMediumRange(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 200}, {X: 480}}
	var tp Topology
	tp.Reset(pts, twoRay(), radio.DefaultParams())
	// 0-1 in range (200 m), 1-2 out of range (280 m > 250 m).
	if len(tp.Neighbors[0]) != 1 || len(tp.Neighbors[2]) != 0 {
		t.Fatalf("degrees %d, %d, want 1 (only node 1 within 250 m) and 0", len(tp.Neighbors[0]), len(tp.Neighbors[2]))
	}
	for _, prop := range []radio.Propagation{
		radio.NewTwoRay(914e6, 1.5, 1.5),
		radio.NewLogDistance(914e6, 3, 1, 6, 42),
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			pts := geom.PerturbedGridPlacement(nil, geom.Square(1000), 6, 6, 0.4, rng.New(seed))
			tp.Reset(pts, prop, radio.DefaultParams())
			m := radio.NewMedium(des.NewSim(), prop)
			for _, p := range pts {
				m.Attach(p, radio.DefaultParams())
			}
			for i := range pts {
				for j := range pts {
					want := i != j && m.InRange(j, i)
					if got := slices.Contains(tp.Neighbors[i], pkt.NodeID(j)); got != want {
						t.Fatalf("%T seed %d: %d hears %d = %v, the medium says %v", prop, seed, i, j, got, want)
					}
				}
			}
		}
	}
	pts = geom.PerturbedGridPlacement(nil, geom.Square(1000), 6, 6, 0.4, rng.New(4))
	var prop radio.Propagation = radio.NewTwoRay(914e6, 1.5, 1.5)
	if n := testing.AllocsPerRun(10, func() { tp.Reset(pts, prop, radio.DefaultParams()); tp.Connected() }); n != 0 {
		t.Errorf("rebuilding and checking a sized graph: %v allocations, want 0", n)
	}
}

func TestGrid7x7Connectivity(t *testing.T) {
	// The default experiment layout: 7×7 grid over 1000 m with ~143 m
	// spacing — each interior node sees its 4 lattice neighbours plus
	// diagonals (202 m < 250 m).
	var tp Topology
	tp.Reset(geom.GridPlacement(geom.Square(1000), 7, 7), twoRay(), radio.DefaultParams())
	if !tp.Connected() {
		t.Fatal("7x7 grid disconnected")
	}
	// Corner node: 2 lattice + 1 diagonal = 3 neighbours.
	if len(tp.Neighbors[0]) != 3 {
		t.Fatalf("corner degree %d, want 3", len(tp.Neighbors[0]))
	}
}

func TestEmptyTopology(t *testing.T) {
	var tp Topology
	tp.Reset(nil, twoRay(), radio.DefaultParams())
	if !tp.Connected() {
		t.Fatal("empty graph should be vacuously connected")
	}
}
