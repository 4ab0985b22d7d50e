package geom

import (
	"slices"

	"clnlr/internal/rng"
)

// GridPlacement places n = rows*cols nodes on a regular lattice filling
// the region, the canonical wireless-mesh-backbone layout. Nodes are
// inset by half a cell so boundary nodes are not on the region edge.
func GridPlacement(r Rect, rows, cols int) []Point {
	return AppendGrid(nil, r, rows, cols)
}

// AppendGrid is GridPlacement into dst's storage: it appends the
// lattice to dst[:0] and returns the result.
func AppendGrid(dst []Point, r Rect, rows, cols int) []Point {
	if rows <= 0 || cols <= 0 {
		panic("geom: GridPlacement with non-positive dimensions")
	}
	pts := slices.Grow(dst[:0], rows*cols)
	cw := r.Width() / float64(cols)
	ch := r.Height() / float64(rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			pts = append(pts, Point{
				X: r.Min.X + (float64(j)+0.5)*cw,
				Y: r.Min.Y + (float64(i)+0.5)*ch,
			})
		}
	}
	return pts
}

// PerturbedGridPlacement is a grid whose nodes are each displaced by a
// uniform offset of at most frac of the cell size in each axis. It models
// "planned but imperfect" mesh deployments and breaks the exact distance
// ties of a perfect lattice. Like every placement that draws, it appends
// to dst[:0], so a caller that places again reuses the storage.
func PerturbedGridPlacement(dst []Point, r Rect, rows, cols int, frac float64, src *rng.Source) []Point {
	pts := AppendGrid(dst, r, rows, cols)
	cw := r.Width() / float64(cols)
	ch := r.Height() / float64(rows)
	for i := range pts {
		pts[i] = r.Clamp(pts[i].Add(
			src.Uniform(-frac, frac)*cw,
			src.Uniform(-frac, frac)*ch,
		))
	}
	return pts
}

// UniformPlacement scatters n nodes independently and uniformly over the
// region (the random-topology model used for density sweeps), appended
// to dst[:0].
func UniformPlacement(dst []Point, r Rect, n int, src *rng.Source) []Point {
	pts := dst[:0]
	for range n {
		pts = append(pts, Point{
			X: src.Uniform(r.Min.X, r.Max.X),
			Y: src.Uniform(r.Min.Y, r.Max.Y),
		})
	}
	return pts
}

// ChainPlacement places n nodes on a horizontal line with the given
// spacing, starting at start. Chains are the standard topology for
// multi-hop MAC validation tests (hidden terminal, spatial reuse).
func ChainPlacement(start Point, n int, spacing float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: start.X + float64(i)*spacing, Y: start.Y}
	}
	return pts
}
