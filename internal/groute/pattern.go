package groute

import (
	"fmt"

	"patlabor/internal/tree"
)

// CellSeg is one straight run in cell coordinates (X1 == X2 or Y1 == Y2).
type CellSeg struct {
	X1, Y1, X2, Y2 int
}

// TreeEmbedding is a concrete pattern-routed embedding of one tree: the
// straight cell segments of every edge. It is the unit of rip-up for
// pattern rerouting.
type TreeEmbedding struct {
	Segs []CellSeg
}

func (g *Grid) applySegs(segs []CellSeg, delta int) {
	for _, s := range segs {
		g.applySegment(s.X1, s.Y1, s.X2, s.Y2, delta)
	}
}

// RemoveEmbedding un-embeds e.
func (g *Grid) RemoveEmbedding(e *TreeEmbedding) { g.applySegs(e.Segs, -1) }

// costSegs returns the marginal overflow of embedding the segments now.
func (g *Grid) costSegs(segs []CellSeg) int {
	cost := 0
	for _, s := range segs {
		lo, hi := s.X1, s.X2
		if lo > hi {
			lo, hi = hi, lo
		}
		for x := lo; x < hi; x++ {
			if g.hUse[s.Y1*(g.NX-1)+x] >= g.Cap {
				cost++
			}
		}
		lo, hi = s.Y1, s.Y2
		if lo > hi {
			lo, hi = hi, lo
		}
		for y := lo; y < hi; y++ {
			if g.vUse[y*g.NX+s.X2] >= g.Cap {
				cost++
			}
		}
	}
	return cost
}

// edgePatterns enumerates candidate pattern routes for an edge between
// cells (x1,y1) and (x2,y2): the two L-shapes plus up to maxJogs Z-shapes
// per orientation (a jog at an intermediate column or row). All patterns
// have identical cell length; they differ only in which boundaries they
// cross.
func edgePatterns(x1, y1, x2, y2, maxJogs int) [][]CellSeg {
	if x1 == x2 && y1 == y2 {
		return nil
	}
	if x1 == x2 || y1 == y2 {
		return [][]CellSeg{{{x1, y1, x2, y2}}}
	}
	var out [][]CellSeg
	// L-shapes.
	out = append(out,
		[]CellSeg{{x1, y1, x2, y1}, {x2, y1, x2, y2}}, // horizontal first
		[]CellSeg{{x1, y1, x1, y2}, {x1, y2, x2, y2}}, // vertical first
	)
	// HVH Z-shapes: jog at column m strictly between x1 and x2.
	lo, hi := x1, x2
	if lo > hi {
		lo, hi = hi, lo
	}
	for _, m := range jogPositions(lo, hi, maxJogs) {
		out = append(out, []CellSeg{{x1, y1, m, y1}, {m, y1, m, y2}, {m, y2, x2, y2}})
	}
	// VHV Z-shapes: jog at row m strictly between y1 and y2.
	lo, hi = y1, y2
	if lo > hi {
		lo, hi = hi, lo
	}
	for _, m := range jogPositions(lo, hi, maxJogs) {
		out = append(out, []CellSeg{{x1, y1, x1, m}, {x1, m, x2, m}, {x2, m, x2, y2}})
	}
	return out
}

// jogPositions returns up to k evenly spaced interior positions of (lo,hi).
func jogPositions(lo, hi, k int) []int {
	span := hi - lo
	if span < 2 || k < 1 {
		return nil
	}
	if span-1 <= k {
		out := make([]int, 0, span-1)
		for m := lo + 1; m < hi; m++ {
			out = append(out, m)
		}
		return out
	}
	out := make([]int, 0, k)
	for i := 1; i <= k; i++ {
		out = append(out, lo+i*span/(k+1))
	}
	return out
}

// EmbedBest pattern-routes the tree edge by edge, greedily choosing the
// candidate with the least marginal overflow (ties keep the earliest, an
// L-shape) and applying it immediately so later edges see earlier ones.
func (g *Grid) EmbedBest(t *tree.Tree, maxJogs int) *TreeEmbedding {
	e := &TreeEmbedding{}
	for i, p := range t.Parent {
		if p < 0 {
			continue
		}
		x1, y1 := g.CellOf(t.Nodes[p].P)
		x2, y2 := g.CellOf(t.Nodes[i].P)
		cands := edgePatterns(x1, y1, x2, y2, maxJogs)
		if len(cands) == 0 {
			continue
		}
		best, bestCost := 0, g.costSegs(cands[0])
		for ci := 1; ci < len(cands); ci++ {
			if c := g.costSegs(cands[ci]); c < bestCost {
				best, bestCost = ci, c
			}
		}
		g.applySegs(cands[best], 1)
		e.Segs = append(e.Segs, cands[best]...)
	}
	return e
}

// Reroute rip-up-and-re-embeds every tree with pattern routing for the
// given number of passes and returns the resulting embeddings. The trees
// must already be embedded via the returned embeddings of a previous
// EmbedBest or Reroute round — for convenience, pass nil embeddings to
// start from scratch (trees are embedded first with plain L-shapes).
func Reroute(g *Grid, trees []*tree.Tree, embeds []*TreeEmbedding, passes, maxJogs int) ([]*TreeEmbedding, error) {
	if embeds == nil {
		embeds = make([]*TreeEmbedding, len(trees))
		for i, t := range trees {
			embeds[i] = g.EmbedBest(t, 0) // L-only initial embedding
		}
	}
	if len(embeds) != len(trees) {
		return nil, fmt.Errorf("groute: %d trees but %d embeddings", len(trees), len(embeds))
	}
	if passes < 1 {
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		for i, t := range trees {
			g.RemoveEmbedding(embeds[i])
			embeds[i] = g.EmbedBest(t, maxJogs)
		}
	}
	return embeds, nil
}
