// Package ks implements Pareto-KS (§IV-B of the paper): a polynomial-time
// approximation of the Pareto frontier by divide-and-conquer in the style
// of Kalpakis–Sherman. The pin set is split at a median pin on axes
// alternating with depth; sub-problems small enough are solved exactly by
// Pareto-DW; sub-frontiers are combined with the ⊕ operator, connecting
// each far sub-source to the near source with a direct edge.
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
	// unlimited). Combining is quadratic in set sizes; a cap keeps large
	// instances tractable at a small loss of frontier resolution.
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
	// Divide at the median pin of the alternating axis (the source always
	// stays in the near half as its source; the far half is rooted at its
	// pin closest to the source, per step 3 of the algorithm).
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
	farPins := []int{g}
	for _, p := range farSinks {
		if p != g {
			farPins = append(farPins, p)
		}
	}
	nearPins := append([]int{src}, nearSinks...)

	s1, err := route(ctx, net, nearPins, leaf, opt, depth+1)
	if err != nil {
		return nil, err
	}
	s2, err := route(ctx, net, farPins, leaf, opt, depth+1)
	if err != nil {
		return nil, err
	}
	// Combine: T1 ∪ T2 plus the bridging edge src→g.
	c := geom.Dist(net.Pins[src], net.Pins[g])
	set := &pareto.Set[*tree.Tree]{}
	for _, a := range s1 {
		// |s1|×|s2| clone+graft work: honour cancellation between rows.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, b := range s2 {
			sol := pareto.Sol{
				W: a.Sol.W + b.Sol.W + c,
				D: geom.Max64(a.Sol.D, c+b.Sol.D),
			}
			if !pareto.Contains(set.Sols(), sol) {
				t := a.Val.Clone()
				t.Graft(b.Val, t.Root)
				set.Add(sol, t)
			}
		}
	}
	return pareto.CapItems(set.Items(), opt.MaxSet), nil
}

func axisDist(a, b geom.Point, axis int) int64 {
	if axis == 0 {
		return geom.Abs64(a.X - b.X)
	}
	return geom.Abs64(a.Y - b.Y)
}
