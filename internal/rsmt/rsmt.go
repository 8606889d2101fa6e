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
// the most, until no candidate helps.
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
	steiner := []geom.Point{}
	base := mstLength(net.Pins, steiner)
	for round := 0; round < net.Degree(); round++ {
		bestGain := int64(0)
		bestIdx := -1
		for ci, c := range candidates {
			l := mstLength(net.Pins, append(steiner, c))
			if gain := base - l; gain > bestGain {
				bestGain, bestIdx = gain, ci
			}
		}
		if bestIdx < 0 {
			break
		}
		steiner = append(steiner, candidates[bestIdx])
		candidates = append(candidates[:bestIdx], candidates[bestIdx+1:]...)
		base -= bestGain
	}
	t := mstWithSteiner(net, steiner)
	// Degree-2 Steiner points are artefacts of the candidate set; splice
	// them and apply the trunk-sharing passes.
	refine(t)
	return t
}

// mstLength returns the rectilinear MST length over pins plus Steiner
// points, with Steiner points of degree < 3 contributing no benefit
// (classic 1-Steiner evaluation simply measures the MST).
func mstLength(pins []geom.Point, steiner []geom.Point) int64 {
	pts := append(append([]geom.Point(nil), pins...), steiner...)
	k := len(pts)
	const inf = int64(1) << 62
	dist := make([]int64, k)
	inT := make([]bool, k)
	for i := 1; i < k; i++ {
		dist[i] = geom.Dist(pts[i], pts[0])
	}
	inT[0] = true
	var total int64
	for added := 1; added < k; added++ {
		best, bestD := -1, inf
		for i := 1; i < k; i++ {
			if !inT[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		total += bestD
		inT[best] = true
		for i := 1; i < k; i++ {
			if !inT[i] {
				if d := geom.Dist(pts[i], pts[best]); d < dist[i] {
					dist[i] = d
				}
			}
		}
	}
	return total
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
