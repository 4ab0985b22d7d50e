// Package geom provides the 2-D geometry primitives used to place mesh
// routers and to evaluate radio propagation distances.
//
// Wireless-mesh backbones are planar and static, so the package is
// deliberately small: points, distances and rectangular deployment
// regions. Placement generators (grid, perturbed grid, uniform random)
// live in placement.go.
package geom

import (
	"fmt"
	"math"
)

// Point is a position in metres.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q in metres.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance (cheaper; used for range
// comparisons where the radius can be squared once).
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

// String formats the point in metres.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Rect is an axis-aligned deployment region. Min is the lower-left corner
// and Max the upper-right.
type Rect struct {
	Min, Max Point
}

// Square returns a side×side region anchored at the origin.
func Square(side float64) Rect {
	return Rect{Min: Point{0, 0}, Max: Point{side, side}}
}

// Width returns the horizontal extent of the region.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of the region.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Clamp returns p moved to the nearest point inside the region.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}
