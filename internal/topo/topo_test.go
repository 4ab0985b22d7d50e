package topo

import (
	"slices"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/geom"
	"clnlr/internal/pkt"
	"clnlr/internal/radio"
	"clnlr/internal/rng"
)

func TestFromRangeChain(t *testing.T) {
	pts := geom.ChainPlacement(geom.Point{}, 5, 200)
	tp := FromRange(pts, 250)
	if tp.N() != 5 {
		t.Fatalf("N = %d", tp.N())
	}
	// Inner nodes have 2 neighbours, ends have 1.
	wantDeg := []int{1, 2, 2, 2, 1}
	for i, w := range wantDeg {
		if tp.Degree(pkt.NodeID(i)) != w {
			t.Fatalf("degree[%d] = %d, want %d", i, tp.Degree(pkt.NodeID(i)), w)
		}
	}
	if !tp.Connected() {
		t.Fatal("chain should be connected")
	}
	dist := tp.HopDist(0)
	for i, d := range dist {
		if d != i {
			t.Fatalf("hop dist to %d = %d", i, d)
		}
	}
}

func TestFromRangeDisconnected(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 100}, {X: 1000}, {X: 1100}}
	tp := FromRange(pts, 250)
	if tp.Connected() {
		t.Fatal("gap topology reported connected")
	}
	d := tp.HopDist(0)
	if d[1] != 1 || d[2] != -1 || d[3] != -1 {
		t.Fatalf("hop dist %v", d)
	}
}

func TestFromRangeSymmetric(t *testing.T) {
	pts := geom.GridPlacement(geom.Square(700), 5, 5)
	tp := FromRange(pts, 150)
	for i, nbrs := range tp.Neighbors {
		for _, j := range nbrs {
			found := false
			for _, k := range tp.Neighbors[j] {
				if k == pkt.NodeID(i) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric link %d -> %v", i, j)
			}
		}
	}
}

// TestResetMatchesMediumRange: Reset links exactly the pairs a medium
// with the same radios reports in range, also under a seeded shadowing
// model, keeps that graph when run again over other positions, and
// rebuilding a graph it has already sized allocates nothing.
func TestResetMatchesMediumRange(t *testing.T) {
	pts := []geom.Point{{X: 0}, {X: 200}, {X: 480}}
	var tp Topology
	tp.Reset(pts, radio.NewTwoRay(914e6, 1.5, 1.5), radio.DefaultParams())
	// 0-1 in range (200 m), 1-2 out of range (280 m > 250 m).
	if tp.Degree(0) != 1 || tp.Degree(2) != 0 {
		t.Fatalf("degrees %d, %d, want 1 (only node 1 within 250 m) and 0", tp.Degree(0), tp.Degree(2))
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
	pts := geom.GridPlacement(geom.Square(1000), 7, 7)
	tp := FromRange(pts, 250)
	if !tp.Connected() {
		t.Fatal("7x7 grid disconnected")
	}
	// Corner node: 2 lattice + 1 diagonal = 3 neighbours.
	if tp.Degree(0) != 3 {
		t.Fatalf("corner degree %d, want 3", tp.Degree(0))
	}
}

func TestEmptyTopology(t *testing.T) {
	tp := FromRange(nil, 100)
	if !tp.Connected() {
		t.Fatal("empty graph should be vacuously connected")
	}
}
