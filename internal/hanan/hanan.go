// Package hanan implements the Hanan grid underlying every exact algorithm
// in the library, in two forms:
//
//   - Grid: the concrete, deduplicated Hanan grid of a point set, used by
//     the concrete Pareto-DW dynamic program (internal/dw). Hanan [20]
//     showed optimal rectilinear Steiner trees exist on this grid; the
//     paper notes the same holds for Pareto-optimal timing-driven trees.
//
//   - Pattern/Ranks: the combinatorial rank-space form of an instance — a
//     permutation recording which y-rank each x-rank carries plus the
//     source position — together with the symbolic grid-gap lengths
//     l_1..l_{2n-2}. Lookup tables (internal/lut) are keyed by patterns
//     canonicalised under the 8 mirror/rotation symmetries (§V-A).
package hanan

import (
	"fmt"
	"math"
	"sort"

	"patlabor/internal/geom"
)

// Grid is the deduplicated Hanan grid of a point set: the intersections of
// horizontal and vertical lines through the points. Node indices are
// row-major: idx = j*len(Xs)+i addresses (Xs[i], Ys[j]).
type Grid struct {
	Xs, Ys []int64
}

// NewGrid builds the Hanan grid of the given points.
func NewGrid(pts []geom.Point) *Grid {
	xs := make([]int64, len(pts))
	ys := make([]int64, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Y
	}
	return &Grid{Xs: geom.SortUnique(xs), Ys: geom.SortUnique(ys)}
}

// NumNodes returns the number of grid nodes.
func (g *Grid) NumNodes() int { return len(g.Xs) * len(g.Ys) }

// Node returns the index of grid node (i, j).
func (g *Grid) Node(i, j int) int { return j*len(g.Xs) + i }

// Coords returns the (i, j) coordinates of node idx.
func (g *Grid) Coords(idx int) (i, j int) { return idx % len(g.Xs), idx / len(g.Xs) }

// Point returns the plane position of node idx.
func (g *Grid) Point(idx int) geom.Point {
	i, j := g.Coords(idx)
	return geom.Point{X: g.Xs[i], Y: g.Ys[j]}
}

// Locate returns the node index of p, which must lie on the grid.
func (g *Grid) Locate(p geom.Point) (int, error) {
	i := sort.Search(len(g.Xs), func(i int) bool { return g.Xs[i] >= p.X })
	j := sort.Search(len(g.Ys), func(j int) bool { return g.Ys[j] >= p.Y })
	if i == len(g.Xs) || g.Xs[i] != p.X || j == len(g.Ys) || g.Ys[j] != p.Y {
		return 0, fmt.Errorf("hanan: point %v is not a grid node", p)
	}
	return g.Node(i, j), nil
}

// Dist returns the L1 distance between two grid nodes.
func (g *Grid) Dist(a, b int) int64 {
	return geom.Dist(g.Point(a), g.Point(b))
}

// CheckRange returns an error when the half-perimeter of the pins exceeds
// MaxInt64/(4m), for m sinks. Below that bound every value an exact
// algorithm on the Hanan grid forms fits in int64: a tree over m sinks has
// at most 2m−1 sink and merge nodes, each reached by at most two wires no
// longer than the half-perimeter HP, so no wirelength, delay or
// intermediate sum exceeds (4m−2)·HP. The spans are taken in uint64,
// because maxX−minX can itself overflow int64.
func CheckRange(pins []geom.Point, m int) error {
	if len(pins) == 0 {
		return nil
	}
	lo, hi := pins[0], pins[0]
	for _, p := range pins[1:] {
		lo.X, hi.X = min(lo.X, p.X), max(hi.X, p.X)
		lo.Y, hi.Y = min(lo.Y, p.Y), max(hi.Y, p.Y)
	}
	spanX := uint64(hi.X) - uint64(lo.X)
	spanY := uint64(hi.Y) - uint64(lo.Y)
	limit := uint64(math.MaxInt64) / uint64(4*max(m, 1))
	if spanX > limit || spanY > limit-spanX {
		return fmt.Errorf("hanan: pin spans %d×%d exceed half-perimeter %d, the int64-safe bound for %d sinks",
			spanX, spanY, limit, m)
	}
	return nil
}
