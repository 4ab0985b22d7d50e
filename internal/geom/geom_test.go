package geom

import (
	"math"
	"testing"
	"testing/quick"

	"clnlr/internal/rng"
)

func TestDistKnownValues(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, 0}, Point{1, 0}, 2},
		{Point{0, -2}, Point{0, 3}, 5},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestDist2MatchesDist(t *testing.T) {
	src := rng.New(1)
	for i := 0; i < 1000; i++ {
		p := Point{src.Uniform(-100, 100), src.Uniform(-100, 100)}
		q := Point{src.Uniform(-100, 100), src.Uniform(-100, 100)}
		d := p.Dist(q)
		if math.Abs(p.Dist2(q)-d*d) > 1e-9 {
			t.Fatalf("Dist2 inconsistent with Dist at %v %v", p, q)
		}
	}
}

// Property: distance is symmetric, non-negative, and satisfies the
// triangle inequality (within floating-point tolerance).
func TestQuickMetricAxioms(t *testing.T) {
	bound := func(v float64) float64 { return math.Mod(v, 1e4) }
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{bound(ax), bound(ay)}
		b := Point{bound(bx), bound(by)}
		c := Point{bound(cx), bound(cy)}
		dab, dba := a.Dist(b), b.Dist(a)
		if dab != dba || dab < 0 {
			return false
		}
		// Triangle inequality with tolerance for rounding.
		return a.Dist(c) <= dab+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := Square(1000)
	if r.Width() != 1000 || r.Height() != 1000 {
		t.Fatalf("Square(1000) dims %v x %v", r.Width(), r.Height())
	}
	// Clamp fixes exactly the points inside the region, edges included.
	for _, p := range []Point{{0, 0}, {1000, 1000}} {
		if r.Clamp(p) != p {
			t.Fatalf("edge point %v clamped to %v", p, r.Clamp(p))
		}
	}
	for _, p := range []Point{{-0.1, 500}, {500, 1000.1}} {
		if r.Clamp(p) == p {
			t.Fatalf("outside point %v left in place", p)
		}
	}
}

func TestClamp(t *testing.T) {
	r := Square(10)
	cases := []struct{ in, want Point }{
		{Point{-5, 5}, Point{0, 5}},
		{Point{5, 15}, Point{5, 10}},
		{Point{3, 4}, Point{3, 4}},
		{Point{-1, -1}, Point{0, 0}},
	}
	for _, c := range cases {
		if got := r.Clamp(c.in); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGridPlacement(t *testing.T) {
	r := Square(700)
	pts := GridPlacement(r, 7, 7)
	if len(pts) != 49 {
		t.Fatalf("grid has %d points, want 49", len(pts))
	}
	for _, p := range pts {
		if r.Clamp(p) != p {
			t.Fatalf("grid point %v outside region", p)
		}
	}
	// Neighbouring lattice points are exactly one cell apart.
	cell := 700.0 / 7
	if d := pts[0].Dist(pts[1]); math.Abs(d-cell) > 1e-9 {
		t.Fatalf("horizontal spacing %v, want %v", d, cell)
	}
	if d := pts[0].Dist(pts[7]); math.Abs(d-cell) > 1e-9 {
		t.Fatalf("vertical spacing %v, want %v", d, cell)
	}
	// All points distinct.
	seen := map[Point]bool{}
	for _, p := range pts {
		if seen[p] {
			t.Fatalf("duplicate grid point %v", p)
		}
		seen[p] = true
	}
}

func TestGridPlacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GridPlacement(0 rows) did not panic")
		}
	}()
	GridPlacement(Square(1), 0, 5)
}

func TestPerturbedGridStaysInRegionAndNearLattice(t *testing.T) {
	r := Square(700)
	src := rng.New(9)
	base := GridPlacement(r, 7, 7)
	pts := PerturbedGridPlacement(nil, r, 7, 7, 0.3, src)
	if len(pts) != len(base) {
		t.Fatalf("length mismatch")
	}
	cell := 100.0
	for i, p := range pts {
		if r.Clamp(p) != p {
			t.Fatalf("perturbed point %v escaped region", p)
		}
		if d := p.Dist(base[i]); d > 0.3*cell*math.Sqrt2+1e-9 {
			t.Fatalf("point %d moved %v, beyond perturbation bound", i, d)
		}
	}
}

func TestPerturbedGridDeterministic(t *testing.T) {
	r := Square(700)
	a := PerturbedGridPlacement(nil, r, 5, 5, 0.2, rng.New(42))
	b := PerturbedGridPlacement(nil, r, 5, 5, 0.2, rng.New(42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different placements at %d", i)
		}
	}
}

func TestUniformPlacement(t *testing.T) {
	r := Square(1000)
	src := rng.New(3)
	pts := UniformPlacement(nil, r, 500, src)
	if len(pts) != 500 {
		t.Fatalf("got %d points", len(pts))
	}
	var cx, cy float64
	for _, p := range pts {
		if r.Clamp(p) != p {
			t.Fatalf("point %v outside region", p)
		}
		cx += p.X
		cy += p.Y
	}
	cx /= 500
	cy /= 500
	// Centroid of 500 uniform points should be near the centre.
	if math.Abs(cx-500) > 50 || math.Abs(cy-500) > 50 {
		t.Fatalf("centroid (%v,%v) far from centre", cx, cy)
	}
}

func TestChainPlacement(t *testing.T) {
	pts := ChainPlacement(Point{10, 20}, 5, 200)
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		want := Point{10 + float64(i)*200, 20}
		if p != want {
			t.Fatalf("chain point %d = %v, want %v", i, p, want)
		}
	}
}
