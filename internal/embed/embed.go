// Package embed lowers abstract routing trees to concrete rectilinear
// geometry: every tree edge becomes one or two axis-parallel metal
// segments (an L-shape), and metal length is measured as the length of
// the *union* of segments per track, so wire shared by several tree edges
// is counted once — the metric a detailed router actually pays.
//
// The tree model of internal/tree charges each edge its full L1 length;
// after tree.Steinerize the two metrics coincide on well-formed trees,
// which the tests assert. For arbitrary trees MetalLength(t) can be
// smaller than t.Wirelength(), and the difference is exactly the
// overlapping metal a Steinerisation pass would expose.
package embed

import (
	"cmp"
	"slices"

	"patlabor/internal/geom"
	"patlabor/internal/tree"
)

// Segment is one axis-parallel wire piece. A and B are endpoints with
// A <= B in the running coordinate; Horizontal reports the orientation.
// Zero-length segments are never produced.
type Segment struct {
	A, B       geom.Point
	Horizontal bool
}

// Len returns the segment length.
func (s Segment) Len() int64 { return geom.Dist(s.A, s.B) }

// Corner selects the bend of an L-shape embedding.
type Corner int

const (
	// LowerL bends at (child.X, parent.Y): horizontal first.
	LowerL Corner = iota
	// UpperL bends at (parent.X, child.Y): vertical first.
	UpperL
)

// Tree embeds every edge of t as an L-shape with the given corner rule
// and returns the segments (straight edges produce one segment, bent
// edges two).
func Tree(t *tree.Tree, corner Corner) []Segment {
	var segs []Segment
	for i, p := range t.Parent {
		if p < 0 {
			continue
		}
		segs = append(segs, Edge(t.Nodes[p].P, t.Nodes[i].P, corner)...)
	}
	return segs
}

// Edge embeds the edge from a to b as up to two segments.
func Edge(a, b geom.Point, corner Corner) []Segment {
	if a == b {
		return nil
	}
	var bend geom.Point
	if corner == LowerL {
		bend = geom.Pt(b.X, a.Y)
	} else {
		bend = geom.Pt(a.X, b.Y)
	}
	var segs []Segment
	for _, pair := range [2][2]geom.Point{{a, bend}, {bend, b}} {
		p, q := pair[0], pair[1]
		if p == q {
			continue
		}
		s := Segment{A: p, B: q, Horizontal: p.Y == q.Y}
		// Normalise endpoint order.
		if (s.Horizontal && s.A.X > s.B.X) || (!s.Horizontal && s.A.Y > s.B.Y) {
			s.A, s.B = s.B, s.A
		}
		segs = append(segs, s)
	}
	return segs
}

// MetalLength returns the total length of the union of the segments:
// overlapping pieces on the same track are counted once. Crossing
// perpendicular wires are independent tracks and do not interact.
func MetalLength(segs []Segment) int64 {
	type track struct {
		horizontal bool
		fixed      int64 // y for horizontal tracks, x for vertical
	}
	intervals := map[track][][2]int64{}
	for _, s := range segs {
		var tr track
		var iv [2]int64
		if s.Horizontal {
			tr = track{horizontal: true, fixed: s.A.Y}
			iv = [2]int64{s.A.X, s.B.X}
		} else {
			tr = track{horizontal: false, fixed: s.A.X}
			iv = [2]int64{s.A.Y, s.B.Y}
		}
		intervals[tr] = append(intervals[tr], iv)
	}
	var total int64
	for _, ivs := range intervals {
		total += unionLength(ivs)
	}
	return total
}

// unionLength returns the measure of the union of 1-D intervals.
func unionLength(ivs [][2]int64) int64 {
	// Total order on (lo, hi); the union measure is tie-insensitive but
	// the deterministic order keeps the sweep reproducible.
	slices.SortFunc(ivs, func(a, b [2]int64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	var total int64
	curLo, curHi := ivs[0][0], ivs[0][1]
	for _, iv := range ivs[1:] {
		if iv[0] > curHi {
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
			continue
		}
		if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	return total + (curHi - curLo)
}

// TreeMetal returns the overlap-aware metal length of the tree under the
// given corner rule.
func TreeMetal(t *tree.Tree, corner Corner) int64 {
	return MetalLength(Tree(t, corner))
}
