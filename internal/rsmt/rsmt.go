// Package rsmt constructs rectilinear Steiner minimum trees and stands in
// for FLUTE [4] wherever the paper uses it: producing the initial tree T₀
// of the local search (§V-B) and the wirelength normaliser w(FLUTE) of
// Figure 7.
//
// Three engines are layered by net degree:
//
//   - degree ≤ ExactDegree: the exact minimum-wirelength tree, taken from
//     the minimum-W endpoint of the exact Pareto frontier (internal/dw);
//   - degree ≤ OneSteinerDegree: the Kahng–Robins iterated 1-Steiner
//     heuristic [8] over Hanan-grid candidates;
//   - larger nets: rectilinear MST (Prim) followed by delay-preserving
//     Steinerisation and Steiner-point relocation.
package rsmt

import (
	"context"
	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/hanan"
	"patlabor/internal/tree"
)

// ExactDegree is the largest degree routed exactly.
const ExactDegree = 7

// OneSteinerDegree is the largest degree routed by iterated 1-Steiner.
const OneSteinerDegree = 32

// Tree returns a low-wirelength rectilinear Steiner tree for the net,
// rooted at the source. The result is exact for degree <= ExactDegree.
func Tree(net tree.Net) *tree.Tree {
	n := net.Degree()
	switch {
	case n <= 1:
		return tree.New(net.Source(), 0)
	case n == 2:
		return tree.Star(net)
	case n <= ExactDegree:
		items, err := dw.FrontierContext(context.Background(), net, dw.DefaultOptions())
		if err == nil && len(items) > 0 {
			return items[0].Val
		}
		// Unreachable for valid nets; fall through to the heuristic.
		fallthrough
	case n <= OneSteinerDegree:
		return oneSteiner(net)
	default:
		t := MST(net)
		refine(t)
		return t
	}
}

// Wirelength returns the wirelength of Tree(net).
func Wirelength(net tree.Net) int64 { return Tree(net).Wirelength() }

// MST returns the rectilinear minimum spanning tree of the pins (Prim's
// algorithm, O(n²)), rooted at the source. No Steiner points are added.
func MST(net tree.Net) *tree.Tree {
	n := net.Degree()
	t := tree.New(net.Source(), 0)
	if n <= 1 {
		return t
	}
	const inf = int64(1) << 62
	dist := make([]int64, n)
	from := make([]int, n) // tree node index of the closest in-tree node
	inTree := make([]bool, n)
	for i := 1; i < n; i++ {
		dist[i] = geom.Dist(net.Pins[i], net.Source())
		from[i] = t.Root
	}
	inTree[0] = true
	for added := 1; added < n; added++ {
		best, bestD := -1, inf
		for i := 1; i < n; i++ {
			if !inTree[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		node := t.Add(net.Pins[best], best, from[best])
		inTree[best] = true
		for i := 1; i < n; i++ {
			if inTree[i] {
				continue
			}
			if d := geom.Dist(net.Pins[i], net.Pins[best]); d < dist[i] {
				dist[i] = d
				from[i] = node
			}
		}
	}
	return t
}

// refine applies wirelength-reducing post-passes until fixpoint.
func refine(t *tree.Tree) {
	for pass := 0; pass < 8; pass++ {
		t.Steinerize()
		if !t.RelocateSteiners() {
			return
		}
	}
	t.Compact()
}

// oneSteiner runs the Kahng–Robins iterated 1-Steiner heuristic: greedily
// add the Hanan candidate point whose inclusion reduces the MST wirelength
// the most, until no candidate helps. Each candidate's MST length comes
// from the current MST by vertex insertion in O(k); the MST is rebuilt
// once per accepted point.
func oneSteiner(net tree.Net) *tree.Tree {
	g := hanan.NewGrid(net.Pins)
	pinSet := map[geom.Point]bool{}
	for _, p := range net.Pins {
		pinSet[p] = true
	}
	var candidates []geom.Point
	for idx := 0; idx < g.NumNodes(); idx++ {
		if p := g.Point(idx); !pinSet[p] {
			candidates = append(candidates, p)
		}
	}
	n := net.Degree()
	pts := append(make([]geom.Point, 0, 2*n), net.Pins...)
	var m mst
	m.build(pts)
	for round := 0; round < n; round++ {
		bestGain := int64(0)
		bestIdx := -1
		for ci, c := range candidates {
			if gain := m.total - m.withPoint(pts, c); gain > bestGain {
				bestGain, bestIdx = gain, ci
			}
		}
		if bestIdx < 0 {
			break
		}
		pts = append(pts, candidates[bestIdx])
		candidates = append(candidates[:bestIdx], candidates[bestIdx+1:]...)
		m.build(pts)
	}
	t := mstWithSteiner(net, pts[n:])
	// Degree-2 Steiner points are artefacts of the candidate set; splice
	// them and apply the trunk-sharing passes.
	refine(t)
	return t
}

// mst is a rectilinear minimum spanning tree in Prim form: vertices in
// insertion order, each with its parent and the weight of the edge to it.
// Its weight is unique even when the tree is not, so every 1-Steiner
// gain measured against it is too.
type mst struct {
	order  []int   // vertices in Prim insertion order; order[0] = 0
	parent []int   // parent of each vertex, -1 for vertex 0
	edge   []int64 // weight of each vertex's edge to its parent
	total  int64
	carry  []int64 // withPoint scratch
}

// build computes the MST of pts by Prim's algorithm from pts[0], O(k²).
func (m *mst) build(pts []geom.Point) {
	k := len(pts)
	*m = mst{order: make([]int, 1, k), parent: make([]int, k), edge: make([]int64, k), carry: make([]int64, k)}
	m.parent[0] = -1
	dist := make([]int64, k)
	inT := make([]bool, k)
	inT[0] = true
	for i := 1; i < k; i++ {
		dist[i] = geom.Dist(pts[i], pts[0])
	}
	for added := 1; added < k; added++ {
		best := -1
		for i := 1; i < k; i++ {
			if !inT[i] && (best < 0 || dist[i] < dist[best]) {
				best = i
			}
		}
		inT[best] = true
		m.edge[best] = dist[best]
		m.total += dist[best]
		m.order = append(m.order, best)
		for i := 1; i < k; i++ {
			if !inT[i] {
				if d := geom.Dist(pts[i], pts[best]); d < dist[i] {
					dist[i], m.parent[i] = d, best
				}
			}
		}
	}
}

// withPoint returns the MST length of pts ∪ {c} by vertex insertion
// (Chin & Houck): the new MST lies within the old one plus the star from
// c. Visiting vertices children-first (reverse Prim order), each vertex
// has two edges left, its tree edge and a carried edge to c; the lighter
// joins the MST and the heavier becomes the parent's carried edge when
// lighter than the parent's own. The root's carried edge closes the tree.
func (m *mst) withPoint(pts []geom.Point, c geom.Point) int64 {
	carry := m.carry
	for v, p := range pts {
		carry[v] = geom.Dist(p, c)
	}
	var total int64
	for k := len(m.order) - 1; k >= 1; k-- {
		v := m.order[k]
		lo, hi := carry[v], m.edge[v]
		if lo > hi {
			lo, hi = hi, lo
		}
		total += lo
		if p := m.parent[v]; hi < carry[p] {
			carry[p] = hi
		}
	}
	return total + carry[0]
}

// mstWithSteiner builds the rooted MST over pins and chosen Steiner points.
func mstWithSteiner(net tree.Net, steiner []geom.Point) *tree.Tree {
	pts := append(append([]geom.Point(nil), net.Pins...), steiner...)
	k := len(pts)
	n := net.Degree()
	t := tree.New(net.Source(), 0)
	const inf = int64(1) << 62
	dist := make([]int64, k)
	from := make([]int, k)
	inT := make([]bool, k)
	nodeOf := make([]int, k)
	nodeOf[0] = t.Root
	for i := 1; i < k; i++ {
		dist[i] = geom.Dist(pts[i], pts[0])
		from[i] = t.Root
	}
	inT[0] = true
	for added := 1; added < k; added++ {
		best, bestD := -1, inf
		for i := 1; i < k; i++ {
			if !inT[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		pin := -1
		if best < n {
			pin = best
		}
		nodeOf[best] = t.Add(pts[best], pin, from[best])
		inT[best] = true
		for i := 1; i < k; i++ {
			if inT[i] {
				continue
			}
			if d := geom.Dist(pts[i], pts[best]); d < dist[i] {
				dist[i] = d
				from[i] = nodeOf[best]
			}
		}
	}
	return t
}
