// Package ks implements Pareto-KS (§IV-B of the paper): a polynomial-time
// approximation of the Pareto frontier by divide-and-conquer in the style
// of Kalpakis–Sherman. The pin set is split at a median pin on axes
// alternating with depth; sub-problems small enough are solved exactly by
// Pareto-DW; sub-frontiers are combined with the ⊕ operator, connecting
// each far sub-source to the near source with a direct edge. The ⊕ is the
// walk of internal/pareto (Join), so a combination costs O(|S₁|+|S₂|)
// and builds trees only for the points it keeps.
//
// Theorem 4: Pareto-KS O(√(n/log n))-approximates every frontier point in
// Õ(n²·|S|²) time. With lookup-table leaves of size λ the bound becomes
// O(√(n/λ)) (Remark 1).
package ks

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/lut"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// Options configures Pareto-KS.
type Options struct {
	// Leaf is the largest sub-problem solved exactly. 0 selects
	// max(4, min(MaxLeaf, ⌈log2 n⌉+1)) as in the paper's |P| <= log n rule.
	Leaf int
	// MaxSet caps the Pareto set size carried per sub-problem (0 =
	// unlimited). Combining is linear in set sizes, but every kept point
	// is a cloned tree; a cap keeps large instances tractable at a small
	// loss of frontier resolution.
	MaxSet int
	// Table answers leaves from lookup tables when they cover the leaf
	// degree (Remark 1: LUT leaves turn the O(√(n/log n)) bound into
	// O(√(n/λ)) and the time bound into Õ(nλ|S|²)); uncovered leaves fall
	// back to the exact DP. Nil disables table lookups.
	Table *lut.Table
}

// MaxLeaf bounds the exact leaf size (the exact DP is exponential).
const MaxLeaf = 9

// FrontierContext approximates the Pareto frontier of the net, returning
// one tree per retained solution in canonical order. The context is
// checked at every node of the divide-and-conquer recursion and threaded
// into the exact DP solving the leaves.
func FrontierContext(ctx context.Context, net tree.Net, opts Options) ([]pareto.Item[*tree.Tree], error) {
	n := net.Degree()
	if n == 0 {
		return nil, fmt.Errorf("ks: empty net")
	}
	leaf := opts.Leaf
	if leaf <= 0 {
		leaf = 4
		for v := n; v > 16; v >>= 1 {
			leaf++
		}
	}
	if leaf > MaxLeaf {
		leaf = MaxLeaf
	}
	if leaf < 2 {
		leaf = 2
	}
	pins := make([]int, n)
	for i := range pins {
		pins[i] = i
	}
	items, err := route(ctx, net, pins, leaf, opts, 0)
	if err != nil {
		return nil, err
	}
	return items, nil
}

// route solves the sub-net given by pin indices (pins[0] is the
// sub-source) and returns its Pareto set with trees in the parent frame.
func route(ctx context.Context, net tree.Net, pins []int, leaf int, opt Options, depth int) ([]pareto.Item[*tree.Tree], error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(pins) <= leaf {
		return leafFrontier(ctx, net, pins, opt)
	}
	nearPins, farPins := divide(net, pins, depth)
	s1, err := route(ctx, net, nearPins, leaf, opt, depth+1)
	if err != nil {
		return nil, err
	}
	s2, err := route(ctx, net, farPins, leaf, opt, depth+1)
	if err != nil {
		return nil, err
	}
	return join(ctx, s1, s2, geom.Dist(net.Pins[pins[0]], net.Pins[farPins[0]]), opt.MaxSet)
}

// leafFrontier solves a leaf sub-net exactly: from the table when it
// covers the leaf, else by the DP.
func leafFrontier(ctx context.Context, net tree.Net, pins []int, opt Options) ([]pareto.Item[*tree.Tree], error) {
	sub := tree.Net{Pins: make([]geom.Point, len(pins))}
	for i, p := range pins {
		sub.Pins[i] = net.Pins[p]
	}
	var items []pareto.Item[*tree.Tree]
	var err error
	if opt.Table != nil {
		var ok bool
		items, ok, err = opt.Table.Query(sub)
		if err != nil {
			return nil, err
		}
		if !ok {
			items = nil
		}
	}
	if items == nil {
		items, err = dw.FrontierContext(ctx, sub, dw.DefaultOptions())
		if err != nil {
			return nil, err
		}
	}
	for _, it := range items {
		if err := it.Val.RelabelPins(pins); err != nil {
			return nil, err
		}
	}
	return pareto.CapItems(items, opt.MaxSet), nil
}

// divide splits the sinks of the sub-net at the median pin of the axis
// alternating with depth. The near half keeps the source (pins[0]); the
// far half is rooted at its pin closest to the source, per step 3 of the
// algorithm.
func divide(net tree.Net, pins []int, depth int) (nearPins, farPins []int) {
	src := pins[0]
	sinks := append([]int(nil), pins[1:]...)
	axis := depth % 2
	// Stable on the full (axis, off-axis) coordinate key: coincident pins
	// keep their input order, which is itself deterministic.
	slices.SortStableFunc(sinks, func(x, y int) int {
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
	mid := len(sinks) / 2
	nearSinks, farSinks := sinks[:mid], sinks[mid:]
	// Keep the source's own half "near": if the source is beyond the
	// median on the split axis, swap halves so the far half is the one
	// away from the source.
	if len(nearSinks) > 0 && len(farSinks) > 0 {
		sp, np := net.Pins[src], net.Pins[nearSinks[0]]
		fp := net.Pins[farSinks[len(farSinks)-1]]
		if axisDist(sp, np, axis) > axisDist(sp, fp, axis) {
			nearSinks, farSinks = farSinks, nearSinks
		}
	}
	// Far sub-source: the far pin closest to the source.
	g := farSinks[0]
	for _, p := range farSinks[1:] {
		if geom.Dist(net.Pins[p], net.Pins[src]) < geom.Dist(net.Pins[g], net.Pins[src]) {
			g = p
		}
	}
	farPins = []int{g}
	for _, p := range farSinks {
		if p != g {
			farPins = append(farPins, p)
		}
	}
	nearPins = append([]int{src}, nearSinks...)
	return nearPins, farPins
}

// join combines the near half's frontier s1 with the far half's s2, whose
// sub-source hangs c below the source on a direct edge: T1 ∪ T2 plus the
// bridging edge has W = w1 + w2 + c and D = max(d1, c + d2), so the
// frontier is the ⊕ walk of s1 and s2 with delay offset c, every W raised
// by c. Only the walk's points are built as trees.
func join(ctx context.Context, s1, s2 []pareto.Item[*tree.Tree], c int64, maxSet int) ([]pareto.Item[*tree.Tree], error) {
	walk := pareto.Join(nil, pareto.AppendSols(nil, s1), pareto.AppendSols(nil, s2), 0, 0, c)
	out := make([]pareto.Item[*tree.Tree], len(walk))
	ev := tree.GetEvaluator()
	defer tree.PutEvaluator(ev)
	for k, w := range walk {
		// Clone+graft work per point: honour cancellation between them.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, b := s1[w.A].Val, s2[w.B].Val
		t := a.CloneCap(a.Len() + b.Len())
		t.GraftWith(b, t.Root, ev)
		out[k] = pareto.Item[*tree.Tree]{Sol: pareto.Sol{W: w.W + c, D: w.D}, Val: t}
	}
	return pareto.CapItems(out, maxSet), nil
}

func axisDist(a, b geom.Point, axis int) int64 {
	if axis == 0 {
		return geom.Abs64(a.X - b.X)
	}
	return geom.Abs64(a.Y - b.Y)
}
