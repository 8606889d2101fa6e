// Package geom provides exact rectilinear (L1) geometry primitives used
// throughout the router: points, bounding boxes, distances, medians and
// half-perimeter wirelength. All coordinates are int64 so every distance,
// wirelength and delay computed by the library is exact.
package geom

import (
	"fmt"
	"slices"
)

// Point is a point in the rectilinear plane.
type Point struct {
	X, Y int64
}

// Pt is a convenience constructor for Point.
func Pt(x, y int64) Point { return Point{X: x, Y: y} }

// String renders the point as "(x,y)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Add returns p+q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p-q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Abs64 returns the absolute value of x.
func Abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// Min64 returns the smaller of a and b.
func Min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Max64 returns the larger of a and b.
func Max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Dist returns the rectilinear (L1) distance between p and q.
func Dist(p, q Point) int64 {
	return Abs64(p.X-q.X) + Abs64(p.Y-q.Y)
}

// Rect is an axis-aligned rectangle with inclusive bounds.
// A Rect is valid when MinX<=MaxX and MinY<=MaxY.
type Rect struct {
	MinX, MinY, MaxX, MaxY int64
}

// RectOf returns the degenerate rectangle containing only p.
func RectOf(p Point) Rect { return Rect{p.X, p.Y, p.X, p.Y} }

// BoundingBox returns the smallest Rect containing all points.
// It panics if pts is empty.
func BoundingBox(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingBox of empty point set")
	}
	r := RectOf(pts[0])
	for _, p := range pts[1:] {
		r = r.Include(p)
	}
	return r
}

// Include returns the smallest Rect containing both r and p.
func (r Rect) Include(p Point) Rect {
	if p.X < r.MinX {
		r.MinX = p.X
	}
	if p.X > r.MaxX {
		r.MaxX = p.X
	}
	if p.Y < r.MinY {
		r.MinY = p.Y
	}
	if p.Y > r.MaxY {
		r.MaxY = p.Y
	}
	return r
}

// Union returns the smallest Rect containing both rectangles.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: Min64(r.MinX, s.MinX),
		MinY: Min64(r.MinY, s.MinY),
		MaxX: Max64(r.MaxX, s.MaxX),
		MaxY: Max64(r.MaxY, s.MaxY),
	}
}

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Width returns the horizontal extent of r.
func (r Rect) Width() int64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() int64 { return r.MaxY - r.MinY }

// HalfPerimeter returns the half-perimeter length of r.
func (r Rect) HalfPerimeter() int64 { return r.Width() + r.Height() }

// Project returns the point of r closest (in L1) to p: p itself when p is
// inside r, otherwise the projection of p onto r's boundary.
func (r Rect) Project(p Point) Point {
	q := p
	if q.X < r.MinX {
		q.X = r.MinX
	} else if q.X > r.MaxX {
		q.X = r.MaxX
	}
	if q.Y < r.MinY {
		q.Y = r.MinY
	} else if q.Y > r.MaxY {
		q.Y = r.MaxY
	}
	return q
}

// DistToRect returns the L1 distance from p to the closest point of r
// (zero when p is inside r).
func (r Rect) DistToRect(p Point) int64 { return Dist(p, r.Project(p)) }

// HPWL returns the half-perimeter wirelength of the point set: the half
// perimeter of its bounding box. HPWL of an empty set is 0.
func HPWL(pts ...Point) int64 {
	if len(pts) == 0 {
		return 0
	}
	return BoundingBox(pts).HalfPerimeter()
}

// Median returns a 1-D rectilinear median of xs: a value minimising the sum
// of absolute deviations. For even counts the lower median is returned.
// It panics on an empty slice. The input slice is not modified.
func Median(xs []int64) int64 {
	if len(xs) == 0 {
		panic("geom: Median of empty slice")
	}
	cp := append([]int64(nil), xs...)
	slices.Sort(cp)
	return cp[(len(cp)-1)/2]
}

// Meet returns the "meeting point" of p and q toward the origin-side corner:
// (min(x), min(y)). It is the canonical merge point used by rectilinear
// Steiner arborescence heuristics for first-quadrant instances.
func Meet(p, q Point) Point {
	return Point{X: Min64(p.X, q.X), Y: Min64(p.Y, q.Y)}
}

// SortUnique sorts xs ascending and removes duplicates in place, returning
// the deduplicated slice.
func SortUnique(xs []int64) []int64 {
	if len(xs) == 0 {
		return xs
	}
	slices.Sort(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// DedupPoints returns the distinct points of pts, preserving the first
// occurrence order.
func DedupPoints(pts []Point) []Point {
	seen := make(map[Point]bool, len(pts))
	out := make([]Point, 0, len(pts))
	for _, p := range pts {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
