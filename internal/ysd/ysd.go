// Package ysd implements the YSD baseline [6] (Yang, Sun & Ding): a
// weighted-sum method minimising w(T) + β·d(T) for a tunable β, using a
// learned model for small-degree nets and divide-and-conquer for
// large-degree nets.
//
// Substitution (see DESIGN.md): YSD's per-degree neural network, which
// approximates the weighted-sum-optimal topology, is replaced by an exact
// weighted-sum oracle — the argmin of w + β·d over the true Pareto
// frontier computed by internal/dw. This is YSD's best case: no model
// error, no GPU. The structural property the paper exploits remains: a
// weighted-sum minimiser can only ever reach solutions on the lower-left
// convex hull of the frontier, so non-convex frontier points are
// unreachable for every β, and the non-optimality ratios of Table III grow
// with degree exactly as reported.
package ysd

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// SmallDegree is the largest degree routed by the weighted-sum oracle, as
// in the paper (YSD trains models for n <= 9).
const SmallDegree = 9

// LeafDegree is the sub-problem size at which the divide-and-conquer
// recursion bottoms out. The paper's YSD uses its neural model for every
// leaf; our oracle leaf is capped at 7 to keep the exact DP per leaf fast.
const LeafDegree = 7

// ConvexHull returns the subset of a canonical Pareto frontier reachable
// by weighted-sum minimisation: the vertices of the lower-left convex
// hull. Every argmin of w + β·d for some β >= 0 is a hull vertex and vice
// versa.
func ConvexHull[T any](items []pareto.Item[T]) []pareto.Item[T] {
	if len(items) <= 2 {
		return append([]pareto.Item[T](nil), items...)
	}
	var hull []pareto.Item[T]
	for _, it := range items {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2].Sol, hull[len(hull)-1].Sol
			c := it.Sol
			// b lies on or above segment a-c ⟺ cross <= 0: not a vertex.
			cross := (b.W-a.W)*(c.D-a.D) - (b.D-a.D)*(c.W-a.W)
			if cross <= 0 {
				hull = hull[:len(hull)-1]
				continue
			}
			break
		}
		hull = append(hull, it)
	}
	return hull
}

// SmallSweepContext returns every solution the oracle YSD can produce for
// a small-degree net across all β: the convex hull of the exact frontier.
// The context is threaded into the exact DP.
func SmallSweepContext(ctx context.Context, net tree.Net) ([]pareto.Item[*tree.Tree], error) {
	if net.Degree() > SmallDegree {
		return nil, fmt.Errorf("ysd: degree %d exceeds SmallDegree", net.Degree())
	}
	items, err := dw.FrontierContext(ctx, net, dw.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return ConvexHull(items), nil
}

// Build returns the YSD tree for one parameter value β.
func Build(net tree.Net, beta float64) (*tree.Tree, error) {
	pins := make([]int, net.Degree())
	for i := range pins {
		pins[i] = i
	}
	return route(context.Background(), net, pins, beta, 0)
}

// route solves the sub-net of `net` given by pin indices `pins` (pins[0]
// is the sub-source), returning a tree in the parent net's pin frame.
func route(ctx context.Context, net tree.Net, pins []int, beta float64, depth int) (*tree.Tree, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sub := tree.Net{Pins: make([]geom.Point, len(pins))}
	for i, p := range pins {
		sub.Pins[i] = net.Pins[p]
	}
	if len(pins) <= LeafDegree {
		items, err := dw.FrontierContext(ctx, sub, dw.DefaultOptions())
		if err != nil {
			return nil, err
		}
		best := items[0]
		bestV := float64(best.Sol.W) + beta*float64(best.Sol.D)
		for _, it := range items[1:] {
			if v := float64(it.Sol.W) + beta*float64(it.Sol.D); v < bestV {
				best, bestV = it, v
			}
		}
		t := best.Val
		if err := t.RelabelPins(pins); err != nil {
			return nil, err
		}
		return t, nil
	}
	// Divide: split the sinks at the median of the axis alternating with
	// depth; the source is kept in both sub-problems as their source.
	sinks := pins[1:]
	axis := depth % 2
	ord := append([]int(nil), sinks...)
	// Stable on the full (axis, off-axis) coordinate key: coincident pins
	// keep their input order, which is itself deterministic.
	slices.SortStableFunc(ord, func(x, y int) int {
		pa, pb := net.Pins[x], net.Pins[y]
		if axis == 0 {
			if c := cmp.Compare(pa.X, pb.X); c != 0 {
				return c
			}
			return cmp.Compare(pa.Y, pb.Y)
		}
		if c := cmp.Compare(pa.Y, pb.Y); c != 0 {
			return c
		}
		return cmp.Compare(pa.X, pb.X)
	})
	mid := len(ord) / 2
	left := append([]int{pins[0]}, ord[:mid]...)
	right := append([]int{pins[0]}, ord[mid:]...)
	tl, err := route(ctx, net, left, beta, depth+1)
	if err != nil {
		return nil, err
	}
	trr, err := route(ctx, net, right, beta, depth+1)
	if err != nil {
		return nil, err
	}
	merged, err := tree.MergeAtRoot(tl, trr)
	if err != nil {
		return nil, err
	}
	merged.Steinerize()
	return merged, nil
}

// DefaultBetas is the parameter grid used when sweeping YSD.
func DefaultBetas() []float64 {
	return []float64{0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1, 1.5, 2.5, 4, 8, 16, 1e6}
}

// SweepContext runs YSD across the β grid and returns the Pareto set of
// produced trees. For small nets the exact hull is returned directly (a
// dense β sweep converges to it). The context is checked per β and
// threaded into the recursion and its exact-DP leaves.
func SweepContext(ctx context.Context, net tree.Net, betas []float64) ([]pareto.Item[*tree.Tree], error) {
	if net.Degree() <= SmallDegree {
		return SmallSweepContext(ctx, net)
	}
	if len(betas) == 0 {
		betas = DefaultBetas()
	}
	pins := make([]int, net.Degree())
	for i := range pins {
		pins[i] = i
	}
	set := &pareto.Set[*tree.Tree]{}
	for _, b := range betas {
		t, err := route(ctx, net, pins, b, 0)
		if err != nil {
			return nil, err
		}
		set.Add(t.Sol(), t)
	}
	return set.Items(), nil
}
